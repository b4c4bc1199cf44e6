#include "reference.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <stdexcept>
#include <thread>

#include "trace.hpp"

namespace certbench {
namespace {

__extension__ using Wide = unsigned __int128;

constexpr std::size_t kTableWords = std::size_t{1} << 16;  // 512 KiB.
constexpr std::size_t kChunkIterations = 8000;
constexpr std::size_t kChunksPerThread = 50;
// kHandoff hands out the same total work in smaller chunks, about the
// size of a dipd range.
constexpr std::size_t kHandoffSplit = 4;
constexpr std::size_t kOutstanding = 2;
constexpr std::size_t kMutators = 11;  // adv::stress* mutators per battery.

struct Pipe {
  int in = -1;
  int out = -1;
  Pipe() {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("reference pipe failed");
    in = fds[0];
    out = fds[1];
  }
  ~Pipe() {
    ::close(in);
    closeOut();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void closeOut() {
    if (out >= 0) ::close(out);
    out = -1;
  }
};

struct Reply {
  std::uint32_t worker;
  std::uint32_t chunk;
  std::uint64_t value;
};

void writeAll(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("reference pipe write failed");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

// False at end of stream.
bool readAll(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}
constexpr std::size_t kNeighbours = 4;

std::uint64_t referenceChunk(const std::vector<std::uint64_t>& table, std::uint64_t seed,
                             std::size_t iterations = kChunkIterations) {
  std::uint64_t x = seed * 2 + 1;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const Wide p = static_cast<Wide>(x) * 0x9E3779B97F4A7C15ull;
    x = static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
    acc += table[(x >> 17) & (kTableWords - 1)];
    x += acc;
  }
  return acc ^ x;
}

}  // namespace

HostReference::HostReference(unsigned threads, ReferenceShape shape)
    : threads_(std::max(threads, shape == ReferenceShape::kHandoff ? 2u : 1u)), shape_(shape) {
  table_.resize(kTableWords);
  for (std::size_t i = 0; i < kTableWords; ++i) table_[i] = i * 0x2545F4914F6CDD1Dull;
}

double HostReference::batchMs() {
  switch (shape_) {
    case ReferenceShape::kShared:
      return sharedMs(1);
    case ReferenceShape::kRounds:
      return sharedMs(kMutators);
    case ReferenceShape::kHandoff:
      return handoffMs();
  }
  throw std::logic_error("unknown reference shape");
}

// Threads claim chunks from a shared counter, as TrialRunner claims trials,
// so the batch time follows the summed speed of the vCPUs rather than the
// slowest one.
double HostReference::sharedMs(std::size_t rounds) {
  const std::size_t chunks = kChunksPerThread * threads_;
  std::vector<std::uint64_t> out(chunks);
  const std::int64_t start = nowNs();
  for (std::size_t r = 0; r < rounds; ++r) {
    std::atomic<std::size_t> next{r * chunks / rounds};
    const std::size_t last = (r + 1) * chunks / rounds;
    const auto worker = [&] {
      for (std::size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < last;) {
        out[c] = referenceChunk(table_, c);
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads_; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
  }
  const std::int64_t end = nowNs();
  // Each chunk is a fixed function of its index; a zero fold means the
  // compiler or the machine did not run them.
  std::uint64_t check = 0;
  for (const std::uint64_t v : out) check ^= v;
  if (check == 0) throw std::runtime_error("reference batch produced no work");
  return static_cast<double>(end - start) / 1e6;
}

double HostReference::handoffMs() {
  const unsigned workers = threads_ - 1;
  const std::size_t chunks = kChunksPerThread * kHandoffSplit * workers;
  Pipe reply;
  std::vector<Pipe> requests(workers);
  std::vector<std::thread> pool;
  std::uint64_t check = 0;
  const std::int64_t start = nowNs();
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      // A reply is 16 bytes, under PIPE_BUF, so workers' writes never mix.
      for (std::uint32_t chunk; readAll(requests[w].in, &chunk, sizeof(chunk));) {
        const Reply r{w, chunk, referenceChunk(table_, chunk, kChunkIterations / kHandoffSplit)};
        writeAll(reply.out, &r, sizeof(r));
      }
    });
  }
  std::uint32_t sent = 0;
  for (std::size_t k = 0; k < kOutstanding; ++k) {
    for (unsigned w = 0; w < workers && sent < chunks; ++w, ++sent) {
      writeAll(requests[w].out, &sent, sizeof(sent));
    }
  }
  for (std::size_t done = 0; done < chunks; ++done) {
    Reply r{};
    if (!readAll(reply.in, &r, sizeof(r))) throw std::runtime_error("reference worker ended");
    check ^= r.value;
    if (sent < chunks) {
      writeAll(requests[r.worker].out, &sent, sizeof(sent));
      ++sent;
    }
  }
  for (Pipe& p : requests) p.closeOut();  // Workers see end of stream.
  for (std::thread& t : pool) t.join();
  const std::int64_t end = nowNs();
  if (check == 0) throw std::runtime_error("reference batch produced no work");
  return static_cast<double>(end - start) / 1e6;
}

std::vector<double> speedScale(const std::vector<double>& referenceMs) {
  std::vector<double> scale(referenceMs.size());
  std::vector<double> near;
  for (std::size_t i = 0; i < referenceMs.size(); ++i) {
    const std::size_t lo = i >= kNeighbours ? i - kNeighbours : 0;
    const std::size_t hi = std::min(referenceMs.size(), i + kNeighbours + 1);
    near.assign(referenceMs.begin() + static_cast<std::ptrdiff_t>(lo),
                referenceMs.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto mid = near.begin() + static_cast<std::ptrdiff_t>(near.size() / 2);
    std::nth_element(near.begin(), mid, near.end());
    scale[i] = kReferenceMs / *mid;
  }
  return scale;
}

}  // namespace certbench
