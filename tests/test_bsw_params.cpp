// Scoring-parameter sweep: the SIMD engines' bias trick and saturating
// arithmetic must hold for any (match, mismatch, gap) configuration users
// might pass (bwa -A/-B/-O/-E), not just the defaults.  Each parameterized
// case checks bit-identity against the scalar kernel on a mixed job pool.
#include <gtest/gtest.h>

#include "bsw/bsw_engine.h"
#include "seq/dna.h"
#include "util/rng.h"

namespace mem2::bsw {
namespace {

struct ParamCase {
  int a, b, o_del, e_del, o_ins, e_ins, zdrop;
  const char* label;
};

class BswParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(BswParamSweep, AllEnginesMatchScalar) {
  const ParamCase pc = GetParam();
  KswParams p;
  p.a = pc.a;
  p.b = pc.b;
  p.o_del = pc.o_del;
  p.e_del = pc.e_del;
  p.o_ins = pc.o_ins;
  p.e_ins = pc.e_ins;
  p.zdrop = pc.zdrop;

  // Job pool with indel-heavy divergence to exercise both gap chains.
  util::Xoshiro256ss rng(0xb5f);
  std::vector<std::vector<seq::Code>> qs, ts;
  std::vector<ExtendJob> jobs;
  for (int i = 0; i < 200; ++i) {
    const int qlen = 8 + static_cast<int>(rng.below(90));
    std::vector<seq::Code> q(static_cast<std::size_t>(qlen));
    for (auto& c : q) c = static_cast<seq::Code>(rng.below(4));
    std::vector<seq::Code> t;
    for (const auto c : q) {
      if (rng.chance(0.05)) continue;
      if (rng.chance(0.05)) t.push_back(static_cast<seq::Code>(rng.below(4)));
      t.push_back(rng.chance(0.1) ? static_cast<seq::Code>(rng.below(4)) : c);
    }
    if (t.empty()) t.push_back(0);
    qs.push_back(std::move(q));
    ts.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ExtendJob j;
    j.query = qs[i].data();
    j.qlen = static_cast<int>(qs[i].size());
    j.target = ts[i].data();
    j.tlen = static_cast<int>(ts[i].size());
    j.h0 = 1 + static_cast<int>(rng.below(40));
    j.w = 10 + static_cast<int>(rng.below(80));
    jobs.push_back(j);
  }

  std::vector<KswResult> expect;
  expect.reserve(jobs.size());
  for (const auto& j : jobs) expect.push_back(ksw_extend_scalar(j, p));

  for (util::Isa isa : {util::Isa::kScalar, util::Isa::kAvx2, util::Isa::kAvx512}) {
    if (util::detect_isa() < isa) continue;
    // 16-bit path: all jobs.
    {
      const BswEngine e = get_engine(isa, Precision::k16bit);
      std::vector<KswResult> got(jobs.size());
      for (std::size_t pos = 0; pos < jobs.size(); pos += static_cast<std::size_t>(e.width)) {
        const int n = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(e.width), jobs.size() - pos));
        e.run(&jobs[pos], &got[pos], n, p, nullptr);
      }
      for (std::size_t i = 0; i < jobs.size(); ++i)
        ASSERT_EQ(got[i], expect[i]) << pc.label << " " << e.name << " job " << i;
    }
    // 8-bit path: eligible jobs only.
    {
      const BswEngine e = get_engine(isa, Precision::k8bit);
      std::vector<ExtendJob> j8;
      std::vector<KswResult> e8;
      for (std::size_t i = 0; i < jobs.size(); ++i)
        if (fits_8bit(jobs[i], p)) {
          j8.push_back(jobs[i]);
          e8.push_back(expect[i]);
        }
      std::vector<KswResult> got(j8.size());
      for (std::size_t pos = 0; pos < j8.size(); pos += static_cast<std::size_t>(e.width)) {
        const int n = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(e.width), j8.size() - pos));
        e.run(&j8[pos], &got[pos], n, p, nullptr);
      }
      for (std::size_t i = 0; i < j8.size(); ++i)
        ASSERT_EQ(got[i], e8[i]) << pc.label << " " << e.name << " job " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scoring, BswParamSweep,
    ::testing::Values(ParamCase{1, 4, 6, 1, 6, 1, 100, "bwa_default"},
                      ParamCase{1, 1, 1, 1, 1, 1, 100, "flat_unit"},
                      ParamCase{2, 8, 12, 2, 12, 2, 200, "doubled"},
                      ParamCase{1, 4, 6, 1, 6, 1, 0, "no_zdrop"},
                      ParamCase{1, 4, 6, 1, 6, 1, 1, "tiny_zdrop"},
                      ParamCase{5, 2, 3, 1, 3, 1, 50, "match_heavy"},
                      ParamCase{1, 9, 16, 1, 16, 1, 100, "mismatch_heavy"},
                      ParamCase{1, 4, 6, 2, 10, 1, 100, "asymmetric_gaps"}),
    [](const ::testing::TestParamInfo<ParamCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace mem2::bsw
