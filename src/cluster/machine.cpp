#include "cluster/machine.hpp"

#include <algorithm>
#include <bit>

namespace bsld::cluster {

namespace {

constexpr std::size_t word_of(CpuId cpu) {
  return static_cast<std::size_t>(cpu) / Machine::kWordBits;
}
constexpr std::uint64_t bit_of(CpuId cpu) {
  return std::uint64_t{1} << (static_cast<std::size_t>(cpu) % Machine::kWordBits);
}

bool end_order(const Machine::Running& a, const Machine::Running& b) {
  return a.expected_end != b.expected_end ? a.expected_end < b.expected_end
                                          : a.job < b.job;
}

}  // namespace

Machine::Machine(std::int32_t cpu_count)
    : cpu_count_(cpu_count), free_now_(cpu_count) {
  BSLD_REQUIRE(cpu_count > 0, "Machine: cpu_count must be positive");
  free_.assign(word_of(cpu_count - 1) + 1, ~std::uint64_t{0});
  if (cpu_count % kWordBits != 0) free_.back() = bit_of(cpu_count) - 1;
  segments_.resize(static_cast<std::size_t>(cpu_count));
}

Time Machine::earliest_start(std::int32_t size, Time now) const {
  BSLD_REQUIRE(size > 0 && size <= cpu_count_,
               "Machine: allocation size must be within [1, cpu_count]");
  if (free_now_ >= size) return now;
  // Every free CPU is available at `now`, strictly before any busy CPU
  // (whose availability clamps to >= now + 1), and the clamp preserves the
  // end order. The k-th smallest availability is therefore the clamped end
  // of the first running job whose cumulative CPU count reaches
  // size - free_now_.
  const std::int32_t need = size - free_now_;
  const auto it = std::partition_point(
      by_end_.begin(), by_end_.end(),
      [need](const Running& r) { return r.cpus_before + r.cpus < need; });
  return std::max(it->expected_end, now + 1);
}

const std::vector<std::uint64_t>& Machine::available_words(Time start,
                                                           Time now) const {
  if (by_end_.empty() || start < std::max(by_end_.front().expected_end, now + 1)) {
    return free_;
  }
  scratch_ = free_;
  for (const Running& r : by_end_) {
    if (std::max(r.expected_end, now + 1) > start) break;
    for_each_segment(r, [&](const Segment& s) { scratch_[s.word] |= s.bits; });
  }
  return scratch_;
}

std::size_t Machine::find(JobId job, CpuId first_cpu) const {
  const auto it = std::find_if(by_end_.begin(), by_end_.end(),
                               [job](const Running& r) { return r.job == job; });
  BSLD_REQUIRE(it != by_end_.end() && it->first_cpu == first_cpu,
               "Machine: CPU is not the handle of that running job");
  return static_cast<std::size_t>(it - by_end_.begin());
}

std::size_t Machine::insert(const Running& entry) {
  const auto it =
      std::upper_bound(by_end_.begin(), by_end_.end(), entry, end_order);
  const auto index = static_cast<std::size_t>(it - by_end_.begin());
  by_end_.insert(it, entry);
  return index;
}

void Machine::reindex(std::size_t from) {
  std::int32_t before =
      from == 0 ? 0 : by_end_[from - 1].cpus_before + by_end_[from - 1].cpus;
  for (std::size_t i = from; i < by_end_.size(); ++i) {
    by_end_[i].cpus_before = before;
    before += by_end_[i].cpus;
  }
}

void Machine::held_cpus(JobId job, CpuId first_cpu,
                        std::vector<CpuId>& out) const {
  for_each_segment(by_end_[find(job, first_cpu)], [&](const Segment& s) {
    for (std::uint64_t bits = s.bits; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<CpuId>(s.word) * kWordBits +
                    std::countr_zero(bits));
    }
  });
}

void Machine::assign(JobId job, const std::vector<CpuId>& cpus,
                     Time expected_end) {
  BSLD_REQUIRE(job != kNoJob, "Machine: cannot assign the null job");
  BSLD_REQUIRE(!cpus.empty(), "Machine: empty allocation");
  BSLD_REQUIRE(std::none_of(by_end_.begin(), by_end_.end(),
                            [job](const Running& r) { return r.job == job; }),
               "Machine: job is already running");
  // Group the list into one-word runs, then claim run by run. A CPU repeated
  // within a run is caught while grouping, one repeated across runs by its
  // claim; a failed claim hands the earlier runs back.
  claim_.clear();
  for (const CpuId cpu : cpus) {
    BSLD_REQUIRE(cpu >= 0 && cpu < cpu_count_, "Machine: cpu out of range");
    if (claim_.empty() || claim_.back().word != word_of(cpu)) {
      claim_.push_back({0, static_cast<std::uint32_t>(word_of(cpu))});
    }
    BSLD_REQUIRE((claim_.back().bits & bit_of(cpu)) == 0,
                 "Machine: CPU listed twice");
    claim_.back().bits |= bit_of(cpu);
  }
  for (std::size_t i = 0; i < claim_.size(); ++i) {
    std::uint64_t& free = free_[claim_[i].word];
    if ((free & claim_[i].bits) != claim_[i].bits) {
      for (std::size_t j = 0; j < i; ++j) free_[claim_[j].word] |= claim_[j].bits;
      throw Error("Machine: CPU already busy (oversubscription)");
    }
    free &= ~claim_[i].bits;
  }
  // Chain the runs ascending by word (from the back), merging equal words.
  std::sort(claim_.begin(), claim_.end(),
            [](const Segment& a, const Segment& b) { return a.word < b.word; });
  CpuId head = -1;
  for (std::size_t i = claim_.size(); i-- > 0;) {
    Segment run = claim_[i];
    if (head >= 0 && word_of(head) == run.word) {
      run.bits |= segments_[static_cast<std::size_t>(head)].bits;
      head = segments_[static_cast<std::size_t>(head)].next;
    }
    run.next = head;
    head = static_cast<CpuId>(run.word) * kWordBits + std::countr_zero(run.bits);
    segments_[static_cast<std::size_t>(head)] = run;
  }
  const auto count = static_cast<std::int32_t>(cpus.size());
  free_now_ -= count;
  reindex(insert(Running{expected_end, job, cpus.front(), count, 0, head}));
}

void Machine::update_expected_end(JobId job, CpuId first_cpu,
                                  Time expected_end) {
  const std::size_t old_index = find(job, first_cpu);
  Running entry = by_end_[old_index];
  by_end_.erase(by_end_.begin() + static_cast<std::ptrdiff_t>(old_index));
  entry.expected_end = expected_end;
  reindex(std::min(old_index, insert(entry)));
}

void Machine::release(JobId job, CpuId first_cpu) {
  const std::size_t index = find(job, first_cpu);
  for_each_segment(by_end_[index],
                   [&](const Segment& s) { free_[s.word] |= s.bits; });
  free_now_ += by_end_[index].cpus;
  by_end_.erase(by_end_.begin() + static_cast<std::ptrdiff_t>(index));
  reindex(index);
}

}  // namespace bsld::cluster
