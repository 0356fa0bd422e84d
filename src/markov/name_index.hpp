// Name -> state index lookup shared by every chain builder (CtmcBuilder,
// DtmcBuilder, SmpBuilder) and the chains they build.
//
// The names stay in the owner's own state list. The table is open
// addressed and holds only a 32-bit hash tag and a state index per slot,
// so indexing a name allocates no node and copies no key. A probe
// compares a name only when its tag matches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace rascad::markov {

class NameIndex {
 public:
  /// Index of the state called `name`, or nullopt. `name_of(i)` returns
  /// the name of state i.
  template <typename NameOf>
  std::optional<std::size_t> find(std::string_view name,
                                  const NameOf& name_of) const {
    if (slots_.empty()) return std::nullopt;
    const std::uint32_t tag = hash(name);
    for (std::size_t s = tag & mask();; s = (s + 1) & mask()) {
      const Slot slot = slots_[s];
      if (slot.index == kEmpty) return std::nullopt;
      if (slot.tag == tag && name_of(slot.index) == name) return slot.index;
    }
  }

  /// Records `index` as the state called `name`. Returns false, and
  /// records nothing, if a state of that name is already indexed.
  template <typename NameOf>
  bool insert(std::string_view name, std::size_t index,
              const NameOf& name_of) {
    if (index >= kEmpty) {
      throw std::length_error("NameIndex: state index exceeds 32 bits");
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint32_t tag = hash(name);
    std::size_t s = tag & mask();
    for (; slots_[s].index != kEmpty; s = (s + 1) & mask()) {
      if (slots_[s].tag == tag && name_of(slots_[s].index) == name) {
        return false;
      }
    }
    slots_[s] = {tag, static_cast<std::uint32_t>(index)};
    ++size_;
    return true;
  }

 private:
  struct Slot {
    std::uint32_t tag;
    std::uint32_t index;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  static std::uint32_t hash(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// Doubles the table (at least 16 slots), keeping the load at most 1/2.
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()),
                          Slot{0, kEmpty});
    old.swap(slots_);
    for (const Slot slot : old) {
      if (slot.index == kEmpty) continue;
      std::size_t s = slot.tag & mask();
      while (slots_[s].index != kEmpty) s = (s + 1) & mask();
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;  // size is 0 or a power of two
  std::size_t size_ = 0;
};

}  // namespace rascad::markov
