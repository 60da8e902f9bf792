/**
 * @file
 * Golden determinism test of the event-driven protocols: Async and
 * Buffered campaigns with every dispatch-keyed fault process on (churn,
 * duplicates, offline, upload failures), a staleness bound that fires,
 * and the Int8 codec must replay a recorded trace bit-for-bit at any
 * thread count. The literals below were captured (as C99 hexfloats, so
 * they round-trip exactly) from the event pump that trained top-ups
 * serially on the caller thread, before training moved into pool jobs.
 *
 * The final-weight digest is FNV-1a over the bytes of the global
 * model's saveParams(), so any single-bit drift in training, codec
 * round trip or fold order shows up even when the summary metrics
 * happen to agree.
 *
 * Any change to these numbers is a behavior change of the simulator
 * itself and must be made deliberately, re-capturing the goldens in the
 * same commit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "fl/simulator.h"

using namespace fedgpo;
using namespace fedgpo::fl;

namespace {

struct GoldenEpoch
{
    double accuracy;
    double round_time;
    double energy_total;
    double staleness_mean;
    std::uint64_t model_version;
    std::uint64_t digest; //!< FNV-1a of the global saveParams() bytes
};

std::uint64_t
fnv1a(const std::vector<float> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (float v : values) {
        unsigned char bytes[sizeof(float)];
        std::memcpy(bytes, &v, sizeof(float));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// Capture config: CNN-MNIST, 10 devices, 200/64 train/test samples,
// seed 7, both variance processes on, Int8 codec (64-value chunks),
// churn/duplicate/offline/upload-failure rates 0.2/0.2/0.1/0.2, a
// staleness bound of 3 (it fires in Async), and five epochs of (B=8, E=2, K=5).
FlConfig
goldenConfig(ProtocolMode mode, std::size_t threads)
{
    FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 10;
    config.train_samples = 200;
    config.test_samples = 64;
    config.seed = 7;
    config.interference = true;
    config.network_unstable = true;
    config.threads = threads;
    config.protocol.mode = mode;
    config.protocol.max_staleness = 3;
    if (mode == ProtocolMode::Buffered)
        config.protocol.buffer_size = 3;
    config.comm.codec = comm::Codec::Int8Quant;
    config.comm.quant_chunk = 64;
    config.faults.churn_rate = 0.2;
    config.faults.duplicate_rate = 0.2;
    config.faults.offline_rate = 0.1;
    config.faults.upload_failure_rate = 0.2;
    config.faults.reconnect_delay_s = 5.0;
    return config;
}

constexpr int kEpochs = 5;

constexpr GoldenEpoch kAsync[kEpochs] = {
    {0x1.6p-3, 0x1.8bf69cd36afe2p+3, 0x1.36b0eeb3f1457p+7,
     0x1.ccccccccccccdp+0, 5u, 0xf2d21ec67012952ULL},
    {0x1.ap-3, 0x1.55d5be403770ep+3, 0x1.6b7189a6a633bp+7,
     0x1.6666666666666p+0, 10u, 0xbc7fcd2c0df25350ULL},
    {0x1.cp-4, 0x1.bf0a80bb8a7f8p+3, 0x1.629f009b2d9ddp+7,
     0x1p+1, 15u, 0xf03a82eb0ba3d3f1ULL},
    {0x1.6p-3, 0x1.87816c17a3e68p+3, 0x1.ef3f897f2a59bp+6,
     0x1.ccccccccccccdp+0, 20u, 0xf561a8e2e5e9f2f5ULL},
    {0x1.6p-2, 0x1.25f354c704894p+3, 0x1.e770eaf210166p+7,
     0x1.3333333333333p+0, 25u, 0xf0f1ccdf59d18aaULL},
};

constexpr GoldenEpoch kBuffered[kEpochs] = {
    {0x1.4p-3, 0x1.98cd0f6caf83bp+2, 0x1.b6b3717da1ecbp+5,
     0x0p+0, 1u, 0x3eaaeaf08a5d366fULL},
    {0x1.4p-4, 0x1.7f202a3a26789p+2, 0x1.abe584471b289p+6,
     0x1p+0, 2u, 0x9d174530c9b5309dULL},
    {0x1.4p-4, 0x1.8747312047be4p+2, 0x1.4822c130688f8p+6,
     0x1p+0, 3u, 0x550bd64698762634ULL},
    {0x1.6p-3, 0x1.212d6bbf47654p+3, 0x1.b5ebcc19e4062p+6,
     0x1.5555555555555p-1, 4u, 0xc1ac1774c3df8d8cULL},
    {0x1.2p-3, 0x1.e7cc69c41c968p+3, 0x1.edebac9d0d344p+6,
     0x1.5555555555555p-1, 5u, 0x4458e2dcc8159073ULL},
};

struct GoldenCase
{
    const char *name;
    ProtocolMode mode;
    const GoldenEpoch *epochs;
};

constexpr GoldenCase kCases[] = {
    {"Async", ProtocolMode::Async, kAsync},
    {"Buffered", ProtocolMode::Buffered, kBuffered},
};

} // namespace

class AsyncGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, GoldenCase>>
{
};

TEST_P(AsyncGoldenTest, BitIdenticalToSerialTopUpTrace)
{
    const auto [threads, golden_case] = GetParam();
    FlSimulator sim(goldenConfig(golden_case.mode, threads));
    std::size_t churned = 0, duplicates = 0, offline = 0, retries = 0;
    for (int e = 0; e < kEpochs; ++e) {
        SCOPED_TRACE(std::string(golden_case.name) + " epoch " +
                     std::to_string(e + 1));
        const GoldenEpoch &g = golden_case.epochs[e];
        const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 2, 5});
        const std::uint64_t digest = fnv1a(sim.globalModel().saveParams());
        churned += r.dropped_churn;
        duplicates += r.dropped_duplicate;
        offline += r.dropped_offline;
        retries += r.upload_retries;
        EXPECT_EQ(r.test_accuracy, g.accuracy);
        EXPECT_EQ(r.round_time, g.round_time);
        EXPECT_EQ(r.energy_total, g.energy_total);
        EXPECT_EQ(r.staleness_mean, g.staleness_mean);
        EXPECT_EQ(r.model_version, g.model_version);
        EXPECT_EQ(digest, g.digest);
    }
    // The golden only pins the fault paths it actually takes.
    EXPECT_GT(churned, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(offline, 0u);
    EXPECT_GT(retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, AsyncGoldenTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::ValuesIn(kCases)),
    [](const ::testing::TestParamInfo<AsyncGoldenTest::ParamType> &info) {
        return std::string(std::get<1>(info.param).name) + "_threads" +
               std::to_string(std::get<0>(info.param));
    });
