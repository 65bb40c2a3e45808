#include "core/wait_queue.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsld::core {

void WaitQueue::push(JobId id, std::int32_t size) {
  BSLD_REQUIRE(members_.insert(id).second, "WaitQueue: duplicate job id");
  jobs_.push_back({id, size});
}

JobId WaitQueue::head() const {
  BSLD_REQUIRE(!jobs_.empty(), "WaitQueue: head() on empty queue");
  return jobs_.front().id;
}

JobId WaitQueue::pop_head() {
  BSLD_REQUIRE(!jobs_.empty(), "WaitQueue: pop_head() on empty queue");
  const JobId id = jobs_.front().id;
  jobs_.pop_front();
  members_.erase(id);
  return id;
}

void WaitQueue::remove(JobId id) {
  BSLD_REQUIRE(members_.erase(id) == 1, "WaitQueue: removing absent job");
  jobs_.erase(std::find_if(jobs_.begin(), jobs_.end(),
                           [id](const Entry& entry) { return entry.id == id; }));
}

void WaitQueue::remove_at(std::size_t pos) {
  BSLD_REQUIRE(pos < jobs_.size(), "WaitQueue: removing past the end");
  const auto it = jobs_.begin() + static_cast<std::ptrdiff_t>(pos);
  members_.erase(it->id);
  jobs_.erase(it);
}

}  // namespace bsld::core
