#include "cluster/machine.hpp"

#include <algorithm>
#include <utility>

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
  next_.assign(static_cast<std::size_t>(cpu_count), -1);
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
    for (CpuId cpu = r.first_cpu; cpu >= 0;
         cpu = next_[static_cast<std::size_t>(cpu)]) {
      scratch_[word_of(cpu)] |= bit_of(cpu);
    }
  }
  return scratch_;
}

std::size_t Machine::find(JobId job, CpuId first_cpu) const {
  const auto it = std::find_if(by_end_.begin(), by_end_.end(),
                               [job](const Running& r) { return r.job == job; });
  BSLD_REQUIRE(it != by_end_.end() && it->first_cpu == first_cpu,
               "Machine: CPU is not the first CPU of that running job");
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
  (void)find(job, first_cpu);
  for (CpuId cpu = first_cpu; cpu >= 0;
       cpu = next_[static_cast<std::size_t>(cpu)]) {
    out.push_back(cpu);
  }
}

void Machine::assign(JobId job, const std::vector<CpuId>& cpus,
                     Time expected_end) {
  BSLD_REQUIRE(job != kNoJob, "Machine: cannot assign the null job");
  BSLD_REQUIRE(!cpus.empty(), "Machine: empty allocation");
  BSLD_REQUIRE(std::none_of(by_end_.begin(), by_end_.end(),
                            [job](const Running& r) { return r.job == job; }),
               "Machine: job is already running");
  // Claim CPU by CPU so a CPU listed twice is caught too; a failed claim
  // hands the earlier ones back, leaving the machine untouched.
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (!is_free(cpus[i])) {
      for (std::size_t j = 0; j < i; ++j) free_[word_of(cpus[j])] |= bit_of(cpus[j]);
      throw Error("Machine: CPU already busy (oversubscription)");
    }
    free_[word_of(cpus[i])] &= ~bit_of(cpus[i]);
  }
  for (std::size_t i = 0; i + 1 < cpus.size(); ++i) {
    next_[static_cast<std::size_t>(cpus[i])] = cpus[i + 1];
  }
  const auto count = static_cast<std::int32_t>(cpus.size());
  free_now_ -= count;
  reindex(insert(Running{expected_end, job, cpus.front(), count, 0}));
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
  for (CpuId cpu = first_cpu; cpu >= 0;) {
    const auto slot = static_cast<std::size_t>(cpu);
    free_[word_of(cpu)] |= bit_of(cpu);
    cpu = std::exchange(next_[slot], -1);
  }
  free_now_ += by_end_[index].cpus;
  by_end_.erase(by_end_.begin() + static_cast<std::ptrdiff_t>(index));
  reindex(index);
}

}  // namespace bsld::cluster
