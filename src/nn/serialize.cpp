#include "resipe/nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/file.hpp"

namespace resipe::nn {
namespace {

constexpr std::uint64_t kMagic = 0x5245534950455731ull;  // "RESIPEW1"

std::vector<std::uint64_t> layout(Sequential& model) {
  std::vector<std::uint64_t> sizes;
  for (const Param& p : model.params()) sizes.push_back(p.value->size());
  return sizes;
}

}  // namespace

void save_weights(Sequential& model, const std::string& path) {
  write_file(path, [&model](std::ostream& out) {
    const auto sizes = layout(model);
    const std::uint64_t count = sizes.size();
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    for (std::uint64_t s : sizes)
      out.write(reinterpret_cast<const char*>(&s), sizeof s);
    for (const Param& p : model.params()) {
      const auto data = p.value->data();
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size() * sizeof(double)));
    }
  });
}

namespace {

bool read_header(std::ifstream& in, std::vector<std::uint64_t>& sizes) {
  std::uint64_t magic = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in.good() || magic != kMagic || count > 1u << 20) return false;
  sizes.resize(count);
  for (auto& s : sizes) {
    in.read(reinterpret_cast<char*>(&s), sizeof s);
    if (!in.good()) return false;
  }
  return true;
}

/// Reads every parameter of a save_weights file laid out for `model`
/// into staging buffers, one per parameter, and checks the whole file
/// before returning them; throws on the first defect.
std::vector<std::vector<double>> read_weights(Sequential& model,
                                              const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RESIPE_REQUIRE(in.good(), "cannot open '" << path << "' for reading");
  std::vector<std::uint64_t> sizes;
  RESIPE_REQUIRE(read_header(in, sizes), "corrupt weight file '" << path
                                                                 << "'");
  RESIPE_REQUIRE(sizes == layout(model),
                 "weight file '" << path
                                 << "' does not match model architecture");
  std::vector<std::vector<double>> staged(sizes.size());
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    staged[p].resize(sizes[p]);
    in.read(reinterpret_cast<char*>(staged[p].data()),
            static_cast<std::streamsize>(sizes[p] * sizeof(double)));
    RESIPE_REQUIRE(in.good(), "truncated weight file '"
                                  << path << "': parameter " << p << " of "
                                  << sizes.size() << " is incomplete");
    for (std::size_t i = 0; i < staged[p].size(); ++i) {
      RESIPE_REQUIRE(std::isfinite(staged[p][i]),
                     "weight file '" << path << "': parameter " << p
                                     << " holds " << staged[p][i]
                                     << " at element " << i);
    }
  }
  RESIPE_REQUIRE(in.peek() == std::ifstream::traits_type::eof(),
                 "weight file '" << path << "' has trailing bytes after its "
                                 << sizes.size() << " parameters");
  return staged;
}

}  // namespace

void load_weights(Sequential& model, const std::string& path) {
  // Nothing reaches the model until the whole file has been checked.
  const std::vector<std::vector<double>> staged = read_weights(model, path);
  const std::vector<Param> params = model.params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    std::copy(staged[p].begin(), staged[p].end(),
              params[p].value->data().begin());
  }
}

bool weights_compatible(Sequential& model, const std::string& path) {
  try {
    read_weights(model, path);
  } catch (const Error&) {
    return false;
  }
  return true;
}

}  // namespace resipe::nn
