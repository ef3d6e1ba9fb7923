#include "core/device_state.h"

#include <bit>
#include <stdexcept>

namespace p2::core {

namespace {
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
}  // namespace

DeviceState::DeviceState(int k)
    : k_(k),
      words_per_row_((k + 63) / 64),
      bits_(static_cast<std::size_t>(k) * static_cast<std::size_t>((k + 63) / 64),
            0) {
  if (k < 1) throw std::invalid_argument("DeviceState: k must be >= 1");
}

DeviceState DeviceState::Initial(int k, int device) {
  DeviceState s(k);
  if (device < 0 || device >= k) {
    throw std::out_of_range("DeviceState::Initial: bad device");
  }
  for (int r = 0; r < k; ++r) s.Set(r, device, true);
  return s;
}

std::span<const std::uint64_t> DeviceState::RowBits(int row) const {
  return {bits_.data() +
              static_cast<std::size_t>(row) *
                  static_cast<std::size_t>(words_per_row_),
          static_cast<std::size_t>(words_per_row_)};
}

std::span<std::uint64_t> DeviceState::MutableRowBits(int row) {
  return {bits_.data() +
              static_cast<std::size_t>(row) *
                  static_cast<std::size_t>(words_per_row_),
          static_cast<std::size_t>(words_per_row_)};
}

bool DeviceState::Get(int row, int col) const {
  if (row < 0 || row >= k_ || col < 0 || col >= k_) {
    throw std::out_of_range("DeviceState::Get: out of range");
  }
  return (RowBits(row)[static_cast<std::size_t>(col) / 64] >>
          (static_cast<std::size_t>(col) % 64)) &
         1u;
}

void DeviceState::Set(int row, int col, bool value) {
  if (row < 0 || row >= k_ || col < 0 || col >= k_) {
    throw std::out_of_range("DeviceState::Set: out of range");
  }
  auto bits = MutableRowBits(row);
  const std::uint64_t mask = 1ull << (static_cast<std::size_t>(col) % 64);
  if (value) {
    bits[static_cast<std::size_t>(col) / 64] |= mask;
  } else {
    bits[static_cast<std::size_t>(col) / 64] &= ~mask;
  }
}

bool DeviceState::RowEmpty(int row) const {
  for (std::uint64_t w : RowBits(row)) {
    if (w != 0) return false;
  }
  return true;
}

std::vector<int> DeviceState::NonEmptyRows() const {
  std::vector<int> rows;
  for (int r = 0; r < k_; ++r) {
    if (!RowEmpty(r)) rows.push_back(r);
  }
  return rows;
}

// The row predicates below take a fast path when a row is one word (k <= 64,
// every system of the paper): a row is then empty iff its word is zero, and
// a straight loop over the words replaces the per-row span walk. Lowering
// and synthesis replay collectives through them millions of times.

int DeviceState::NumNonEmptyRows() const {
  int n = 0;
  if (words_per_row_ == 1) {
    for (const std::uint64_t w : bits_) n += w != 0 ? 1 : 0;
    return n;
  }
  for (int r = 0; r < k_; ++r) {
    if (!RowEmpty(r)) ++n;
  }
  return n;
}

bool DeviceState::IsEmpty() const {
  for (std::uint64_t w : bits_) {
    if (w != 0) return false;
  }
  return true;
}

bool DeviceState::SameNonEmptyRows(const DeviceState& other) const {
  if (k_ != other.k_) return false;
  if (words_per_row_ == 1) {
    for (std::size_t r = 0; r < bits_.size(); ++r) {
      if ((bits_[r] == 0) != (other.bits_[r] == 0)) return false;
    }
    return true;
  }
  for (int r = 0; r < k_; ++r) {
    if (RowEmpty(r) != other.RowEmpty(r)) return false;
  }
  return true;
}

bool DeviceState::NonEmptyRowSetsDisjoint(const DeviceState& other) const {
  if (k_ != other.k_) return false;
  if (words_per_row_ == 1) {
    for (std::size_t r = 0; r < bits_.size(); ++r) {
      if (bits_[r] != 0 && other.bits_[r] != 0) return false;
    }
    return true;
  }
  for (int r = 0; r < k_; ++r) {
    if (!RowEmpty(r) && !other.RowEmpty(r)) return false;
  }
  return true;
}

bool DeviceState::ChunksDisjoint(const DeviceState& other) const {
  if (k_ != other.k_) return false;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if ((bits_[i] & other.bits_[i]) != 0) return false;
  }
  return true;
}

bool DeviceState::IsSubsetOf(const DeviceState& other) const {
  if (k_ != other.k_) return false;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

bool DeviceState::IsStrictSubsetOf(const DeviceState& other) const {
  return IsSubsetOf(other) && !(*this == other);
}

DeviceState DeviceState::Union(const DeviceState& other) const {
  DeviceState out = *this;
  out.UnionInPlace(other);
  return out;
}

void DeviceState::UnionInPlace(const DeviceState& other) {
  if (k_ != other.k_) {
    throw std::invalid_argument("DeviceState::Union: size mismatch");
  }
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

DeviceState DeviceState::RestrictedToRows(std::span<const int> rows) const {
  DeviceState out(k_);
  for (int r : rows) {
    if (r < 0 || r >= k_) {
      throw std::out_of_range("DeviceState::RestrictedToRows: bad row");
    }
    auto src = RowBits(r);
    auto dst = out.MutableRowBits(r);
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
  }
  return out;
}

void DeviceState::Clear() {
  for (std::uint64_t& w : bits_) w = 0;
}

std::size_t DeviceState::Hash() const {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t w : bits_) {
    h ^= w;
    h *= kFnvPrime;
  }
  return static_cast<std::size_t>(h);
}

std::string DeviceState::ToString() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(k_) * (static_cast<std::size_t>(k_) + 1));
  for (int r = 0; r < k_; ++r) {
    for (int c = 0; c < k_; ++c) s.push_back(Get(r, c) ? '1' : '0');
    if (r + 1 < k_) s.push_back('\n');
  }
  return s;
}

StateContext MakeInitialContext(int k) {
  StateContext ctx;
  ctx.reserve(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) ctx.push_back(DeviceState::Initial(k, d));
  return ctx;
}

StateContext MakeGoalContext(
    int k, std::span<const std::vector<std::int64_t>> groups) {
  StateContext ctx(static_cast<std::size_t>(k), DeviceState(k));
  std::vector<bool> seen(static_cast<std::size_t>(k), false);
  for (const auto& group : groups) {
    DeviceState s(k);
    for (std::int64_t c : group) {
      for (int r = 0; r < k; ++r) s.Set(r, static_cast<int>(c), true);
    }
    for (std::int64_t d : group) {
      if (d < 0 || d >= k || seen[static_cast<std::size_t>(d)]) {
        throw std::invalid_argument("MakeGoalContext: groups must partition");
      }
      seen[static_cast<std::size_t>(d)] = true;
      ctx[static_cast<std::size_t>(d)] = s;
    }
  }
  for (bool b : seen) {
    if (!b) throw std::invalid_argument("MakeGoalContext: device not covered");
  }
  return ctx;
}

std::size_t HashContext(const StateContext& context) {
  std::uint64_t h = kFnvOffset;
  for (const DeviceState& s : context) {
    h ^= s.Hash();
    h *= kFnvPrime;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace p2::core
