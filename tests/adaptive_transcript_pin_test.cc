// Transcript pins for every consumer of the adaptive size-negotiation round
// (core/adaptive.h): the cold EMD protocol under exact and ladder rounding,
// the set-of-sets reconciler's signature IBLT inside the Gap protocol, and
// the exact-IBLT baseline. Each case pins every message's label, byte count
// and codec, plus the negotiated sizes the report exposes, under both wire
// codecs. The values were computed before the three negotiation entry
// points were folded into NegotiateSketchCells; a change to the estimator
// message, its compact header, the size prefix or the cell counts fails
// here.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_protocol.h"
#include "core/gap_protocol.h"
#include "core/naive.h"
#include "workload/generators.h"

namespace rsr {
namespace {

/// One line per message: "label bytes codec".
std::vector<std::string> Messages(const CommStats& comm) {
  std::vector<std::string> out;
  for (const MessageRecord& m : comm.messages) {
    out.push_back(m.label + " " + std::to_string(m.bytes) + " " +
                  WireCodecName(m.codec));
  }
  return out;
}

constexpr WireCodec kCodecs[] = {WireCodec::kClassic, WireCodec::kCompact};

// ----------------------------------------------------------- EMD protocol --

struct EmdPin {
  std::vector<std::string> messages;
  std::vector<size_t> level_cells;
  size_t decoded_level;
};

EmdPin RunAdaptiveEmd(CellRounding rounding, WireCodec codec) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 1023;
  config.n = 128;
  config.outliers = 3;
  config.noise = 0.0;
  config.outlier_dist = 100;
  config.seed = 601;
  auto workload = GenerateNoisyPairStore(config);
  EXPECT_TRUE(workload.ok());
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = 3;
  params.delta = 1023;
  params.k = 32;
  params.d1 = 16;
  params.d2 = 1024;
  params.seed = 73;
  params.adaptive.enabled = true;
  params.adaptive.rounding = rounding;
  params.codec = codec;
  auto report = RunEmdProtocol(workload->alice, workload->bob, params);
  EXPECT_TRUE(report.ok());
  return {Messages(report->comm), report->level_cells,
          report->decoded_level};
}

void ExpectEmdPin(const EmdPin& got, const EmdPin& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.level_cells, want.level_cells);
  EXPECT_EQ(got.decoded_level, want.decoded_level);
}

TEST(AdaptiveTranscriptPinTest, EmdExactRounding) {
  const EmdPin want[] = {
      {{"B->A level strata 17777 classic", "A->B level RIBLTs 19181 classic"},
       {288, 72, 216, 216, 216, 216, 216},
       7},
      {{"B->A level strata 6509 compact", "A->B level RIBLTs 11848 compact"},
       {288, 72, 216, 216, 216, 216, 216},
       7},
  };
  for (size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(WireCodecName(kCodecs[c]));
    ExpectEmdPin(RunAdaptiveEmd(CellRounding::kExact, kCodecs[c]), want[c]);
  }
}

TEST(AdaptiveTranscriptPinTest, EmdLadderRounding) {
  const EmdPin want[] = {
      {{"B->A level strata 17777 classic", "A->B level RIBLTs 22883 classic"},
       {288, 72, 288, 288, 288, 288, 288},
       7},
      {{"B->A level strata 6509 compact", "A->B level RIBLTs 13634 compact"},
       {288, 72, 288, 288, 288, 288, 288},
       7},
  };
  for (size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(WireCodecName(kCodecs[c]));
    ExpectEmdPin(RunAdaptiveEmd(CellRounding::kDivisorLadder, kCodecs[c]),
                 want[c]);
  }
}

// ------------------------------------------------- Gap / sig-IBLT sizing --

struct GapPin {
  std::vector<std::string> messages;
  int sig_attempts;
  size_t far_keys;
};

GapPin RunAdaptiveGap(double cell_multiplier, WireCodec codec) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 64;
  config.outliers = 3;
  config.noise = 1.0;
  config.outlier_dist = 24;
  config.seed = 611;
  auto workload = GenerateNoisyPairStore(config);
  EXPECT_TRUE(workload.ok());
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 24;
  params.k = 3;
  params.seed = 97;
  params.reconciler.adaptive.enabled = true;
  params.reconciler.adaptive.cell_multiplier = cell_multiplier;
  params.reconciler.adaptive.floor_cells = 8;
  params.reconciler.codec = codec;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  EXPECT_TRUE(report.ok());
  return {Messages(report->comm), report->reconciliation.sig_attempts,
          report->far_keys};
}

void ExpectGapPin(const GapPin& got, const GapPin& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.sig_attempts, want.sig_attempts);
  EXPECT_EQ(got.far_keys, want.far_keys);
}

TEST(AdaptiveTranscriptPinTest, GapSigStrata) {
  const GapPin want[] = {
      {{"A->B sig-strata 2972 classic", "B->A sig-iblt 3396 classic",
        "A->B missing-sigs 449 classic", "B->A elem-iblt+fps 18030 classic",
        "A->B far elements 391 classic"},
       1,
       3},
      {{"A->B sig-strata 1269 compact", "B->A sig-iblt 2039 compact",
        "A->B missing-sigs 498 compact", "B->A elem-iblt+fps 15377 compact",
        "A->B far elements 391 classic"},
       1,
       3},
  };
  for (size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(WireCodecName(kCodecs[c]));
    ExpectGapPin(RunAdaptiveGap(4.0, kCodecs[c]), want[c]);
  }
}

TEST(AdaptiveTranscriptPinTest, GapUndersizedSigStrataRetries) {
  // A tiny multiplier starts the sig IBLT below the difference, so the
  // doubling retries run from the negotiated size.
  const GapPin want[] = {
      {{"A->B sig-strata 2972 classic", "B->A sig-iblt 292 classic",
        "A->B sig-resize 1 classic", "B->A sig-iblt 581 classic",
        "A->B sig-resize 1 classic", "B->A sig-iblt 1161 classic",
        "A->B sig-resize 2 classic", "B->A sig-iblt 2131 classic",
        "A->B missing-sigs 449 classic", "B->A elem-iblt+fps 18030 classic",
        "A->B far elements 391 classic"},
       4,
       3},
      {{"A->B sig-strata 1269 compact", "B->A sig-iblt 231 compact",
        "A->B sig-resize 1 classic", "B->A sig-iblt 457 compact",
        "A->B sig-resize 1 classic", "B->A sig-iblt 917 compact",
        "A->B sig-resize 2 classic", "B->A sig-iblt 1580 compact",
        "A->B missing-sigs 498 compact", "B->A elem-iblt+fps 15377 compact",
        "A->B far elements 391 classic"},
       4,
       3},
  };
  for (size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(WireCodecName(kCodecs[c]));
    ExpectGapPin(RunAdaptiveGap(0.25, kCodecs[c]), want[c]);
  }
}

// ------------------------------------------------------ exact-IBLT baseline --

struct ExactPin {
  std::vector<std::string> messages;
  size_t diff_size;
};

ExactPin RunAdaptiveExact(double cell_multiplier) {
  Rng rng(621);
  PointStore alice = GenerateUniformStore(200, 3, 1023, &rng);
  PointStore bob = alice;
  PointStore extra = GenerateUniformStore(5, 3, 1023, &rng);
  bob.AppendStore(extra);
  ExactReconParams params;
  params.dim = 3;
  params.delta = 1023;
  params.num_cells = 2048;
  params.seed = 63;
  params.adaptive.enabled = true;
  params.adaptive.cell_multiplier = cell_multiplier;
  params.adaptive.floor_cells = 8;
  auto report = RunExactIbltReconciliation(alice, bob, params);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report->failure);
  return {Messages(report->comm), report->diff_size};
}

// The baseline has no codec field: it runs at DefaultWireCodec(), so the
// pins follow the process default (RSR_WIRE_CODEC). The second multiplier
// undersizes the negotiated IBLT, so the static-cap retry is pinned too.
TEST(AdaptiveTranscriptPinTest, ExactIbltBaseline) {
  const double multipliers[] = {4.0, 0.25};
  const ExactPin want[2][2] = {
      // classic
      {{{"B->A exact strata 3442 classic", "A->B exact IBLT 851 classic"}, 5},
       {{"B->A exact strata 3442 classic", "A->B exact IBLT 351 classic",
         "B->A exact resize 2 classic", "A->B exact IBLT 75514 classic"},
        5}},
      // compact
      {{{"B->A exact strata 1852 compact", "A->B exact IBLT 712 classic"}, 5},
       {{"B->A exact strata 1852 compact", "A->B exact IBLT 288 classic",
         "B->A exact resize 2 classic", "A->B exact IBLT 24932 classic"},
        5}},
  };
  const size_t codec = DefaultWireCodec() == WireCodec::kClassic ? 0 : 1;
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(multipliers[i]);
    const ExactPin got = RunAdaptiveExact(multipliers[i]);
    EXPECT_EQ(got.messages, want[codec][i].messages);
    EXPECT_EQ(got.diff_size, want[codec][i].diff_size);
  }
}

}  // namespace
}  // namespace rsr
