#include "core/config.h"

#include "util/strings.h"

namespace cupid {

Status CupidConfig::Validate() const {
  CUPID_RETURN_NOT_OK(ValidateLinguisticOptions(linguistic));
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(tree_match));
  if (mapping.th_accept < 0.0 || mapping.th_accept > 1.0) {
    return Status::InvalidArgument("mapping th_accept must be within [0,1]");
  }
  if (initial_mapping_boost < 0.0 || initial_mapping_boost > 1.0) {
    return Status::InvalidArgument(
        "initial_mapping_boost must be within [0,1]");
  }
  return Status::OK();
}

std::string DescribeParameters(const CupidConfig& c) {
  std::string out;
  out += "parameter        value   description\n";
  out += StringFormat("thns             %-7.2f category compatibility threshold\n",
                      c.linguistic.thns);
  out += StringFormat("thhigh           %-7.2f wsim above: increase leaf ssim\n",
                      c.tree_match.th_high);
  out += StringFormat("thlow            %-7.2f wsim below: decrease leaf ssim\n",
                      c.tree_match.th_low);
  out += StringFormat("cinc             %-7.2f leaf ssim increase factor\n",
                      c.tree_match.c_inc);
  out += StringFormat("cdec             %-7.2f leaf ssim decrease factor\n",
                      c.tree_match.c_dec);
  out += StringFormat("thaccept         %-7.2f strong link / mapping threshold\n",
                      c.tree_match.th_accept);
  out += StringFormat("wstruct(leaf)    %-7.2f structural weight, leaf pairs\n",
                      c.tree_match.wstruct_leaf);
  out += StringFormat("wstruct(nonleaf) %-7.2f structural weight, non-leaf pairs\n",
                      c.tree_match.wstruct_nonleaf);
  return out;
}

namespace {

/// FNV-1a accumulator over the raw bytes of config fields.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void B(bool v) { I64(v ? 1 : 0); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t ConfigFingerprint(const CupidConfig& c) {
  Digest d;
  // Linguistic phase.
  d.F64(c.linguistic.thns);
  for (double w : c.linguistic.token_weights.w) d.F64(w);
  d.F64(c.linguistic.substring.scale);
  d.I64(static_cast<int64_t>(c.linguistic.substring.min_affix));
  d.B(c.linguistic.use_categories);
  d.F64(c.linguistic.annotation_weight);
  // Tree building.
  d.B(c.tree_build.expand_join_views);
  d.B(c.tree_build.expand_views);
  // Structural phase.
  d.F64(c.tree_match.th_high);
  d.F64(c.tree_match.th_low);
  d.F64(c.tree_match.c_inc);
  d.F64(c.tree_match.c_dec);
  d.F64(c.tree_match.th_accept);
  d.F64(c.tree_match.wstruct_leaf);
  d.F64(c.tree_match.wstruct_nonleaf);
  d.F64(c.tree_match.leaf_count_ratio);
  d.B(c.tree_match.optional_discount);
  d.B(c.tree_match.leaf_pair_feedback);
  d.B(c.tree_match.lazy_expansion);
  d.I64(c.tree_match.max_leaf_depth);
  d.F64(c.tree_match.skip_leaves_threshold);
  // Mapping generation.
  d.F64(c.mapping.th_accept);
  d.I64(static_cast<int64_t>(c.mapping.cardinality));
  d.I64(static_cast<int64_t>(c.mapping.scope));
  // Type compatibility: the full symmetric table.
  constexpr int kNumTypes = static_cast<int>(DataType::kAny) + 1;
  for (int a = 0; a < kNumTypes; ++a) {
    for (int b = a; b < kNumTypes; ++b) {
      d.F64(c.type_compatibility.Get(static_cast<DataType>(a),
                                     static_cast<DataType>(b)));
    }
  }
  d.F64(c.initial_mapping_boost);
  return d.value();
}

}  // namespace cupid
