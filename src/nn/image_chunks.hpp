// Image-parallel loop shared by the eval-mode forwards of the
// functional layers (ReLU, MaxPool2d).
#pragma once

#include <algorithm>
#include <cstddef>

#include "resipe/common/parallel.hpp"

namespace resipe::nn::detail {

/// Target size of one chunk, in tensor elements; a chunk holds whole
/// images, at least one.  A tensor of at most this many elements is one
/// chunk and stays on the caller, so a serving-size tensor (8 images x
/// 128 features) never wakes the pool.
inline constexpr std::size_t kImageChunkElements = std::size_t{1} << 14;

/// Runs body(b, e) over contiguous image ranges [b, e) of an n-image
/// tensor with `per_image` elements per image, through
/// parallel_for_chunked.  Each image is computed by one thread, so the
/// results do not depend on the thread count.
template <class Body>
void for_image_chunks(std::size_t n, std::size_t per_image,
                      const Body& body) {
  const std::size_t grain = std::max<std::size_t>(
      1, kImageChunkElements / std::max<std::size_t>(1, per_image));
  parallel_for_chunked(n, grain, body);
}

}  // namespace resipe::nn::detail
