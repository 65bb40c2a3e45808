#include "workload/stream.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace bsld::wl {

Workload materialize(JobStream& stream) {
  Workload workload;
  workload.name = stream.name();
  workload.cpus = stream.cpus();
  const std::int64_t hint = stream.size_hint();
  if (hint > 0) workload.jobs.reserve(static_cast<std::size_t>(hint));
  while (std::optional<Job> job = stream.next()) {
    workload.jobs.push_back(*job);
  }
  return workload;
}

void sort_by_submit(Workload& workload) {
  auto by_submit = [](const Job& a, const Job& b) {
    return a.submit < b.submit;
  };
  if (!std::is_sorted(workload.jobs.begin(), workload.jobs.end(), by_submit)) {
    std::stable_sort(workload.jobs.begin(), workload.jobs.end(), by_submit);
  }
}

SortingJobStream::SortingJobStream(std::unique_ptr<JobStream> inner,
                                   std::size_t window)
    : inner_(std::move(inner)), window_(window) {
  BSLD_REQUIRE(inner_ != nullptr, "SortingJobStream: null inner stream");
  BSLD_REQUIRE(window_ > 0, "SortingJobStream: window must be positive");
}

void SortingJobStream::refill() {
  auto after = [](const Pending& a, const Pending& b) {
    return std::tie(a.job.submit, a.job.id, a.seq) >
           std::tie(b.job.submit, b.job.id, b.seq);
  };
  while (!inner_done_ && heap_.size() <= window_) {
    std::optional<Job> job = inner_->next();
    if (!job) {
      inner_done_ = true;
      break;
    }
    heap_.push_back(Pending{*job, next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), after);
  }
}

std::optional<Job> SortingJobStream::next() {
  refill();
  if (heap_.empty()) return std::nullopt;
  auto after = [](const Pending& a, const Pending& b) {
    return std::tie(a.job.submit, a.job.id, a.seq) >
           std::tie(b.job.submit, b.job.id, b.seq);
  };
  std::pop_heap(heap_.begin(), heap_.end(), after);
  const Job job = heap_.back().job;
  heap_.pop_back();
  if (emitted_any_ &&
      std::tie(job.submit, job.id) < std::tie(last_submit_, last_id_)) {
    throw Error("SortingJobStream: record out of order by more than " +
                std::to_string(window_) +
                " positions (job " + std::to_string(job.id) + " at t=" +
                std::to_string(job.submit) + " after t=" +
                std::to_string(last_submit_) + ")");
  }
  emitted_any_ = true;
  last_submit_ = job.submit;
  last_id_ = job.id;
  return job;
}

}  // namespace bsld::wl
