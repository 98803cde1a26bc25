#include "dsp/kernels/workspace.hpp"

namespace ff::dsp::kernels {

template <typename T>
std::span<std::complex<T>> Workspace::get(std::size_t slot, std::size_t n) {
  Pool<T>& p = pool<T>();
  if (slot >= p.slots.size()) {
    p.slots.resize(slot + 1);
    ++p.grows;
  }
  AlignedVec<T>& buf = p.slots[slot];
  if (buf.size() < n) {
    // Slot growth invalidates previous spans of THIS slot only: the
    // AlignedVec objects may move when the slot vector reallocates, but
    // their heap storage (what the spans point at) does not.
    buf.resize(n);
    ++p.grows;
  }
  return {buf.data(), n};
}

template <typename T>
std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const auto& s : pool<T>().slots) total += s.capacity() * sizeof(std::complex<T>);
  return total;
}

void Workspace::release() {
  std::apply(
      [](auto&... pools) {
        ((pools.slots.clear(), pools.slots.shrink_to_fit()), ...);
      },
      pools_);
}

template std::span<std::complex<double>> Workspace::get<double>(std::size_t, std::size_t);
template std::span<std::complex<float>> Workspace::get<float>(std::size_t, std::size_t);
template std::size_t Workspace::bytes<double>() const;
template std::size_t Workspace::bytes<float>() const;

}  // namespace ff::dsp::kernels
