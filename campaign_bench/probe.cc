/**
 * @file
 * Host-speed probe of the campaign benchmark.
 *
 *   probe --threads T
 *
 * Runs a fixed amount of arithmetic, T * kReps products of 128x128 float
 * matrices (working set in L2), on T threads and prints
 * {"probe_s": seconds, "checksum": x} on stdout. The threads take
 * products from a shared counter, as the library's pool hands out work,
 * so a thread slowed by another tenant of the host costs the probe its
 * lost throughput rather than its whole delay. run.py runs the probe
 * between campaigns and scales the host rates by how fast the host ran
 * it, which cancels the slow drift of a shared host's speed.
 *
 * The probe is its own target and links none of the fedgpo libraries,
 * so a change to the library or its build flags cannot change the probe.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr int kN = 128;
constexpr int kReps = 400;

/**
 * Products c += a * b, each feeding one element back into a, until the
 * shared counter passes `total`.
 */
float
work(std::atomic<int> &next, int total)
{
    std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN, 0.0f);
    for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>(i % 7) * 0.1f;
        b[i] = static_cast<float>(i % 5) * 0.2f;
    }
    for (int r; (r = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                const float x = a[i * kN + k];
                for (int j = 0; j < kN; ++j)
                    c[i * kN + j] += x * b[k * kN + j];
            }
        a[r % (kN * kN)] = c[(r * 7) % (kN * kN)] * 1e-6f;
    }
    return c[0];
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    if (argc == 3 && std::strcmp(argv[1], "--threads") == 0)
        threads = std::atoi(argv[2]);
    if (threads <= 0) {
        std::fprintf(stderr, "usage: probe --threads T (T > 0)\n");
        return 2;
    }
    std::vector<float> sums(static_cast<std::size_t>(threads));
    std::atomic<int> next{0};
    const int total = threads * kReps;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(
            [&sums, &next, total, t] { sums[t] = work(next, total); });
    for (auto &th : pool)
        th.join();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    double checksum = 0.0;
    for (const float x : sums)
        checksum += x;
    if (!std::isfinite(checksum)) {
        std::fprintf(stderr, "probe: non-finite checksum\n");
        return 1;
    }
    std::printf("{\"probe_s\":%.9f,\"checksum\":%.9g}\n", s, checksum);
    return 0;
}
