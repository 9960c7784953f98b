#include <algorithm>
#include <chrono>

#include "index/mem2_index.h"
#include "index/sais.h"

namespace mem2::index {

namespace {

// Phase-timing shim around the optional progress callback.
class BuildPhases {
 public:
  explicit BuildPhases(const IndexBuildOptions& opt) : opt_(opt) {}

  template <class Fn>
  void run(const char* name, Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    if (opt_.progress) {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      opt_.progress(name, dt.count());
    }
  }

 private:
  const IndexBuildOptions& opt_;
};

}  // namespace

Mem2Index Mem2Index::build(seq::Reference ref, const IndexBuildOptions& opt) {
  Mem2Index idx;
  idx.ref_ = std::move(ref);
  MEM2_REQUIRE(idx.ref_.length() > 0, "cannot index an empty reference");

  // Fail before the expensive suffix-array pass: the 32-bit components
  // (CP32 counts, flat SA entries) cap the doubled length at 2^32-1.
  const idx_t n2 = 2 * idx.ref_.length();
  OccCp32::check_text_length(n2);

  BuildPhases phases(opt);

  // Text over both strands; one SA pass feeds every component.
  std::vector<seq::Code> text;
  phases.run("pack-text", [&] {
    std::vector<seq::Code> fwd(static_cast<std::size_t>(idx.ref_.length()));
    idx.ref_.pac().extract(0, fwd.size(), fwd.data());
    text = with_reverse_complement(fwd);
  });

  // The phases after the suffix array, for either SA element width.
  const auto derive = [&](auto sa) {
    BwtData bwt;
    phases.run("bwt", [&] {
      bwt = derive_bwt(text, sa);
      text.clear();
      text.shrink_to_fit();
    });
    phases.run("occ-cp128", [&] {
      idx.fm128_.build(bwt);
      idx.fm128_.store_raw_bwt(bwt);  // needed for baseline SAL LF-walks
    });
    phases.run("occ-cp32", [&] { idx.fm32_.build(bwt); });
    bwt.bwt.clear();
    bwt.bwt.shrink_to_fit();
    phases.run("sampled-sa",
               [&] { idx.sampled_sa_.build(sa, opt.sampled_interval); });
    // Move, not copy: a 32-bit SA buffer becomes the flat SA.
    phases.run("flat-sa", [&] { idx.flat_sa_.build(std::move(sa)); });
  };

  // 32-bit SA whenever the SA-IS core fits it (doubled length up to
  // 2^31-3): the core then runs in the flat SA's own buffer.  Doubled
  // lengths in (2^31-3, 2^32-1] take the 64-bit SA, narrowed into the flat
  // SA at the end.
  if (static_cast<std::size_t>(n2) + 1 <= static_cast<std::size_t>(0x7ffffffe)) {
    util::BigVector<std::uint32_t> sa;
    phases.run("suffix-array",
               [&] { sa = build_suffix_array_u32(text, opt.threads); });
    derive(std::move(sa));
  } else {
    std::vector<idx_t> sa;
    phases.run("suffix-array",
               [&] { sa = build_suffix_array(text, opt.threads); });
    derive(std::move(sa));
  }
  return idx;
}

std::vector<seq::Code> Mem2Index::fetch(idx_t rb, idx_t re) const {
  std::vector<seq::Code> out(static_cast<std::size_t>(std::max<idx_t>(re - rb, 0)));
  fetch(rb, re, out.data());
  return out;
}

void Mem2Index::fetch(idx_t rb, idx_t re, seq::Code* out, seq::Code* out_rev) const {
  MEM2_REQUIRE(rb >= 0 && rb <= re && re <= seq_len(), "fetch out of range");
  const idx_t L = l_pac();
  if (re <= L) {
    ref_.pac().unpack(static_cast<std::size_t>(rb), static_cast<std::size_t>(re),
                      false, out, out_rev);
  } else if (rb >= L) {
    // Entirely on the reverse strand: position p maps to forward
    // coordinate 2L-1-p, complemented, so the forward range [2L-re, 2L-rb)
    // read descending is the window and read ascending is its reversal.
    ref_.pac().unpack(static_cast<std::size_t>(2 * L - re),
                      static_cast<std::size_t>(2 * L - rb), true, out_rev, out);
  } else {
    MEM2_REQUIRE(false, "fetch range must not cross the strand boundary");
  }
}

}  // namespace mem2::index
