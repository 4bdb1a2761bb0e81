#include "common/fnv.hpp"

#include <algorithm>

namespace pimsim {

std::vector<std::uint64_t> fnv1a_each(std::uint64_t h,
                                      std::span<const std::string_view> blocks) {
  std::vector<std::uint64_t> out(blocks.size());
  std::size_t i = 0;
  for (; i + 4 <= blocks.size(); i += 4) {
    const std::string_view* b = &blocks[i];
    std::uint64_t h0 = h;
    std::uint64_t h1 = h;
    std::uint64_t h2 = h;
    std::uint64_t h3 = h;
    const std::size_t common =
        std::min({b[0].size(), b[1].size(), b[2].size(), b[3].size()});
    for (std::size_t k = 0; k < common; ++k) {
      h0 = (h0 ^ static_cast<unsigned char>(b[0][k])) * kFnvPrime;
      h1 = (h1 ^ static_cast<unsigned char>(b[1][k])) * kFnvPrime;
      h2 = (h2 ^ static_cast<unsigned char>(b[2][k])) * kFnvPrime;
      h3 = (h3 ^ static_cast<unsigned char>(b[3][k])) * kFnvPrime;
    }
    out[i] = fnv1a(h0, b[0].substr(common));
    out[i + 1] = fnv1a(h1, b[1].substr(common));
    out[i + 2] = fnv1a(h2, b[2].substr(common));
    out[i + 3] = fnv1a(h3, b[3].substr(common));
  }
  for (; i < blocks.size(); ++i) out[i] = fnv1a(h, blocks[i]);
  return out;
}

}  // namespace pimsim
