#include "cluster/first_fit.hpp"

#include <bit>

#include "util/error.hpp"

namespace bsld::cluster {

namespace {

/// Replaces `out` with the first `size` set bits of the bitset whose word w
/// is `word(w)`, lowest index first when kAscending, highest first
/// otherwise. True when `size` bits were found.
template <bool kAscending, typename WordFn>
bool take_bits(std::size_t words, std::int32_t size, WordFn word,
               std::vector<CpuId>& out) {
  out.clear();
  const auto need = static_cast<std::size_t>(size);
  for (std::size_t i = 0; i < words; ++i) {
    const std::size_t w = kAscending ? i : words - 1 - i;
    for (std::uint64_t bits = word(w); bits != 0;) {
      const int bit = kAscending ? std::countr_zero(bits)
                                 : Machine::kWordBits - 1 - std::countl_zero(bits);
      bits &= ~(std::uint64_t{1} << bit);
      out.push_back(static_cast<CpuId>(w * Machine::kWordBits) + bit);
      if (out.size() == need) return true;
    }
  }
  return false;
}

}  // namespace

template <bool kAscending>
bool Fit<kAscending>::select_now(const Machine& machine, std::int32_t size,
                                 Time expected_end,
                                 const Reservation* reservation,
                                 std::vector<CpuId>& out) const {
  BSLD_REQUIRE(size >= 1 && size <= machine.cpu_count(),
               "ResourceSelector: size must be within [1, cpu_count]");
  const std::vector<std::uint64_t>& free = machine.free_words();
  // A job still running at the reserved start may not use reserved CPUs.
  const bool crosses = reservation != nullptr && reservation->active() &&
                       expected_end > reservation->start;
  return take_bits<kAscending>(
      free.size(), size,
      [&](std::size_t w) {
        return crosses ? free[w] & ~reservation->mask[w] : free[w];
      },
      out);
}

template <bool kAscending>
void Fit<kAscending>::reserve(const Machine& machine, std::int32_t size,
                              Time start, Time now,
                              std::vector<std::uint64_t>& mask) const {
  const std::vector<std::uint64_t>& available =
      machine.available_words(start, now);
  mask.resize(available.size());
  std::int32_t need = size;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const std::size_t w = kAscending ? i : mask.size() - 1 - i;
    std::uint64_t bits = need > 0 ? available[w] : 0;
    // The partial word keeps the `need` bits at the selector's end.
    for (int extra = std::popcount(bits) - need; extra > 0; --extra) {
      bits &= kAscending ? ~std::bit_floor(bits) : bits - 1;
    }
    need -= std::popcount(bits);
    mask[w] = bits;
  }
  BSLD_REQUIRE(size >= 1 && need == 0,
               "ResourceSelector: size must be within [1, CPUs available "
               "by start]");
}

template class Fit<true>;
template class Fit<false>;

std::unique_ptr<ResourceSelector> make_selector(const std::string& name) {
  if (name == "FirstFit") return std::make_unique<FirstFit>();
  if (name == "LastFit") return std::make_unique<LastFit>();
  throw Error("make_selector(): unknown selector `" + name + "`");
}

}  // namespace bsld::cluster
