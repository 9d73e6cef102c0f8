// Image-parallel loop shared by the eval-mode forwards of the nn
// layers (Dense, Conv2d, ReLU, MaxPool2d).
#pragma once

#include <algorithm>
#include <cstddef>

#include "resipe/common/parallel.hpp"

namespace resipe::nn::detail {

/// Target work of one chunk; a chunk holds whole images, at least one.
/// A pointwise layer counts its work in tensor elements, a matrix layer
/// in multiply-adds.  A batch of at most this much work is one chunk
/// and stays on the caller, so a serving-size ReLU (8 images x 128
/// features) never wakes the pool.
inline constexpr std::size_t kImageChunkWork = std::size_t{1} << 14;

/// Runs body(b, e) over contiguous image ranges [b, e) of an n-image
/// batch with `per_image` units of work per image, through
/// parallel_for_chunked.  Each image is computed by one thread, so the
/// results do not depend on the thread count.
template <class Body>
void for_image_chunks(std::size_t n, std::size_t per_image,
                      const Body& body) {
  const std::size_t grain = std::max<std::size_t>(
      1, kImageChunkWork / std::max<std::size_t>(1, per_image));
  parallel_for_chunked(n, grain, body);
}

}  // namespace resipe::nn::detail
