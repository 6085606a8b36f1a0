// Seeded inputs: an MNIST-shaped IDX quartet rendered through the data
// layer's synthetic digit generator. It is made once per seed, outside every
// timed window; the workloads only see the files.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"

namespace perfbench {

namespace {

using namespace cellgan;

constexpr std::size_t kTrainSamples = 60000;
constexpr std::size_t kTestSamples = 10000;
constexpr std::size_t kChunk = 5000;  ///< samples rendered per seeded chunk

/// Render `count` samples as seeded chunks on four threads; chunk c uses
/// seed base+c, so the bytes depend only on (base, count).
bool write_split(const std::string& dir, const char* images_name,
                 const char* labels_name, std::size_t count, std::uint64_t base) {
  data::IdxImages images;
  images.count = static_cast<std::uint32_t>(count);
  images.rows = data::kImageSide;
  images.cols = data::kImageSide;
  images.pixels.resize(count * data::kImageDim);
  std::vector<std::uint8_t> labels(count);

  const std::size_t chunks = (count + kChunk - 1) / kChunk;
  const auto render = [&](std::size_t first) {
    for (std::size_t c = first; c < chunks; c += 4) {
      const std::size_t begin = c * kChunk;
      const std::size_t n = std::min(kChunk, count - begin);
      const data::Dataset set = data::make_synthetic_mnist(n, base + c);
      const auto floats = set.images.data();
      for (std::size_t i = 0; i < floats.size(); ++i) {
        // Inverse of the IDX loader's byte / 127.5 - 1.
        const float v = (floats[i] + 1.0f) * 127.5f;
        images.pixels[begin * data::kImageDim + i] =
            static_cast<std::uint8_t>(v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v));
      }
      for (std::size_t i = 0; i < n; ++i) {
        labels[begin + i] = static_cast<std::uint8_t>(set.labels[i]);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) threads.emplace_back(render, t);
  for (auto& thread : threads) thread.join();
  return data::write_idx_images(dir + "/" + images_name, images) &&
         data::write_idx_labels(dir + "/" + labels_name, labels);
}

}  // namespace

int generate_inputs(std::uint64_t seed, const std::string& dir) {
  if (!write_split(dir, "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                   kTrainSamples, seed * 1000) ||
      !write_split(dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
                   kTestSamples, seed * 1000 + 500)) {
    std::fprintf(stderr, "perfbench: cannot write the IDX set to %s\n", dir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
