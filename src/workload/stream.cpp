#include "workload/stream.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace bsld::wl {

namespace {

/// Heap comparator that puts the smallest record on top.
constexpr auto kLater = [](const auto& a, const auto& b) { return b < a; };

}  // namespace

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
  while (!inner_done_ && run_.size() + late_.size() <= window_) {
    std::optional<Job> job = inner_->next();
    if (!job) {
      inner_done_ = true;
      break;
    }
    const Pending pending{*job, next_seq_++};
    if (run_.empty() || run_.back() < pending) {
      run_.push_back(pending);
    } else {
      late_.push_back(pending);
      std::push_heap(late_.begin(), late_.end(), kLater);
    }
  }
}

std::optional<Job> SortingJobStream::next() {
  refill();
  Job job;
  if (!late_.empty() && (run_.empty() || late_.front() < run_.front())) {
    std::pop_heap(late_.begin(), late_.end(), kLater);
    job = late_.back().job;
    late_.pop_back();
  } else if (!run_.empty()) {
    job = run_.front().job;
    run_.pop_front();
  } else {
    return std::nullopt;
  }
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
