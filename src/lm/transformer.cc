#include "lm/transformer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "core/parallel.h"
#include "core/rng.h"
#include "lm/kernels.h"
#include "lm/prefix_cache.h"

namespace dimqr::lm {
namespace {

using dimqr::Result;
using dimqr::Status;
using kernels::Epilogue;
using kernels::MatMul;
using kernels::MatMulEx;
using kernels::MatMulGradA;
using kernels::MatMulGradB;

/// LayerNorm forward for one row. Returns (mean, rstd).
void LayerNormRow(const float* x, const float* g, const float* b, float* y,
                  int d, float* mean_out, float* rstd_out) {
  float mean = 0.0f;
  for (int i = 0; i < d; ++i) mean += x[i];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (int i = 0; i < d; ++i) {
    float dx = x[i] - mean;
    var += dx * dx;
  }
  var /= static_cast<float>(d);
  float rstd = 1.0f / std::sqrt(var + 1e-5f);
  for (int i = 0; i < d; ++i) y[i] = (x[i] - mean) * rstd * g[i] + b[i];
  *mean_out = mean;
  *rstd_out = rstd;
}

/// LayerNorm forward for n rows; the per-row statistics land in mean/rstd
/// when those are non-null (backward needs them, decode does not).
void LayerNormRows(const float* x, const float* g, const float* b, float* y,
                   int n, int d, float* mean, float* rstd) {
  for (int r = 0; r < n; ++r) {
    const auto off = static_cast<std::size_t>(r) * d;
    float row_mean, row_rstd;
    LayerNormRow(x + off, g, b, y + off, d, &row_mean, &row_rstd);
    if (mean != nullptr) {
      mean[r] = row_mean;
      rstd[r] = row_rstd;
    }
  }
}

/// LayerNorm backward for one row; accumulates into dx, dg, db.
void LayerNormRowBackward(const float* x, const float* g, const float* dy,
                          float mean, float rstd, float* dx, float* dg,
                          float* db, int d) {
  float sum_dyg = 0.0f, sum_dyg_xhat = 0.0f;
  for (int i = 0; i < d; ++i) {
    float xhat = (x[i] - mean) * rstd;
    float dyg = dy[i] * g[i];
    sum_dyg += dyg;
    sum_dyg_xhat += dyg * xhat;
    dg[i] += dy[i] * xhat;
    db[i] += dy[i];
  }
  float inv_d = 1.0f / static_cast<float>(d);
  for (int i = 0; i < d; ++i) {
    float xhat = (x[i] - mean) * rstd;
    float dyg = dy[i] * g[i];
    dx[i] += rstd * (dyg - inv_d * sum_dyg - xhat * inv_d * sum_dyg_xhat);
  }
}

}  // namespace

/// Computes flat offsets into the parameter vector.
class TransformerLayout {
 public:
  explicit TransformerLayout(const TransformerConfig& c) : c_(c) {
    std::size_t off = 0;
    tok_emb = Take(&off, static_cast<std::size_t>(c.vocab_size) * c.d_model);
    pos_emb = Take(&off, static_cast<std::size_t>(c.max_seq) * c.d_model);
    for (int l = 0; l < c.n_layers; ++l) {
      Layer layer;
      layer.ln1_g = Take(&off, c.d_model);
      layer.ln1_b = Take(&off, c.d_model);
      layer.w_qkv = Take(&off, static_cast<std::size_t>(c.d_model) * 3 * c.d_model);
      layer.b_qkv = Take(&off, 3 * c.d_model);
      layer.w_o = Take(&off, static_cast<std::size_t>(c.d_model) * c.d_model);
      layer.b_o = Take(&off, c.d_model);
      layer.ln2_g = Take(&off, c.d_model);
      layer.ln2_b = Take(&off, c.d_model);
      layer.w1 = Take(&off, static_cast<std::size_t>(c.d_model) * c.d_ff);
      layer.b1 = Take(&off, c.d_ff);
      layer.w2 = Take(&off, static_cast<std::size_t>(c.d_ff) * c.d_model);
      layer.b2 = Take(&off, c.d_model);
      layers.push_back(layer);
    }
    lnf_g = Take(&off, c.d_model);
    lnf_b = Take(&off, c.d_model);
    w_head = Take(&off, static_cast<std::size_t>(c.d_model) * c.vocab_size);
    total = off;
  }

  struct Layer {
    std::size_t ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
    std::size_t ln2_g, ln2_b, w1, b1, w2, b2;
  };

  std::size_t tok_emb, pos_emb, lnf_g, lnf_b, w_head, total;
  std::vector<Layer> layers;

 private:
  static std::size_t Take(std::size_t* off, std::size_t n) {
    // Regions start on 16-float (64-byte) boundaries so every matrix handed
    // to the SIMD kernels is cache-line aligned whenever the backing buffer
    // is (params_ uses AlignedVec; snapshot sections are 64-byte aligned).
    // Pad floats are initialized to 0 and stay 0 forever: gradients never
    // address them, and Adam maps (g=0, m=0, v=0) to an update of exactly 0.
    std::size_t at = *off;
    *off = at + (n + 15) / 16 * 16;
    return at;
  }
  TransformerConfig c_;
};

/// \brief Everything backward reads from one training forward pass, per
/// layer: the residual rows entering the layer (`x_in`) and after attention
/// (`x_mid`), both LayerNorm outputs with their per-row mean and rstd, the
/// fused QKV rows, the H x T x T attention probabilities, the attention
/// context, the FFN pre- and post-activation rows and the GELU's tanh.
struct ForwardActivations {
  struct Layer {
    AlignedVec<float> x_in, ln1, qkv, att, ctx, x_mid, ln2, ff_pre, ff_act,
        ff_tanh;
    AlignedVec<float> ln1_mean, ln1_rstd, ln2_mean, ln2_rstd;
  };
  std::vector<Layer> layers;
};

namespace {

/// \brief ForwardBackward's per-thread scratch: the state Forward runs in
/// (decode callers hold ThreadLocalDecodeState() across a whole Greedy, so
/// training keeps its own), the activations backward reads, the loss rows
/// and backward's own buffers. Each call re-sizes them with assign/resize,
/// which keeps their capacity, so a warm thread allocates nothing.
struct TrainScratch {
  DecodeState state;
  ForwardActivations acts;
  std::vector<int> loss_pos;
  std::vector<float> lnf, lnf_mean, lnf_rstd, hs, probs, dhs, dlnf, dx;
  std::vector<float> d_mid, d_ln2, d_ff_act, d_ff_pre, d_ctx, d_ln1, d_qkv,
      d_att;
};

/// \brief The chunk gradient buffers of TrainBatch, kept across steps. A
/// batch splits into at most kMaxChunks chunks; chunk c accumulates its
/// examples into grads[c], and FoldAdam reads (and zeroes) them all, so
/// every buffer is zero between steps.
struct TrainWorkspace {
  static constexpr int kMaxChunks = 8;

  /// Sizes the first `chunks` buffers to `size` floats. A buffer already of
  /// that size is left as it is (zero); a resized one is zero-filled.
  void Bind(std::size_t size, int chunks) {
    for (int c = 0; c < chunks; ++c) {
      if (grads[c].size() != size) grads[c].assign(size, 0.0f);
      chunk_data[c] = grads[c].data();
    }
  }

  std::array<AlignedVec<float>, kMaxChunks> grads;
  std::array<float*, kMaxChunks> chunk_data{};
  std::array<double, kMaxChunks> loss{};
};

}  // namespace

Result<Transformer> Transformer::Shell(const TransformerConfig& config) {
  if (config.vocab_size <= SpecialTokensGuard()) {
    return Status::InvalidArgument("vocab_size too small");
  }
  if (config.d_model <= 0 || config.n_heads <= 0 ||
      config.d_model % config.n_heads != 0 || config.n_layers <= 0 ||
      config.d_ff <= 0 || config.max_seq <= 1) {
    return Status::InvalidArgument("bad transformer config");
  }
  Transformer model;
  model.config_ = config;
  model.layout_ = std::make_shared<const TransformerLayout>(config);
  return model;
}

Result<Transformer> Transformer::Create(const TransformerConfig& config) {
  DIMQR_ASSIGN_OR_RETURN(Transformer model, Shell(config));
  const TransformerLayout& layout = *model.layout_;
  model.params_.assign(layout.total, 0.0f);
  dimqr::Rng rng(config.seed);
  auto init = [&rng, &model](std::size_t off, std::size_t n, double scale) {
    for (std::size_t i = 0; i < n; ++i) {
      model.params_[off + i] = static_cast<float>(rng.Normal(0.0, scale));
    }
  };
  double scale = 0.08;
  init(layout.tok_emb,
       static_cast<std::size_t>(config.vocab_size) * config.d_model, scale);
  init(layout.pos_emb,
       static_cast<std::size_t>(config.max_seq) * config.d_model, scale);
  for (const TransformerLayout::Layer& l : layout.layers) {
    // LN gains start at 1.
    for (int i = 0; i < config.d_model; ++i) {
      model.params_[l.ln1_g + i] = 1.0f;
      model.params_[l.ln2_g + i] = 1.0f;
    }
    init(l.w_qkv, static_cast<std::size_t>(config.d_model) * 3 * config.d_model,
         scale);
    init(l.w_o, static_cast<std::size_t>(config.d_model) * config.d_model,
         scale / std::sqrt(2.0 * config.n_layers));
    init(l.w1, static_cast<std::size_t>(config.d_model) * config.d_ff, scale);
    init(l.w2, static_cast<std::size_t>(config.d_ff) * config.d_model,
         scale / std::sqrt(2.0 * config.n_layers));
  }
  for (int i = 0; i < config.d_model; ++i) {
    model.params_[layout.lnf_g + i] = 1.0f;
  }
  init(layout.w_head,
       static_cast<std::size_t>(config.d_model) * config.vocab_size, scale);
  model.adam_m_.assign(layout.total, 0.0f);
  model.adam_v_.assign(layout.total, 0.0f);
  model.Reseat();
  return model;
}

Transformer& Transformer::operator=(const Transformer& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  layout_ = other.layout_;
  adam_step_ = other.adam_step_;
  params_ = other.params_;
  adam_m_ = other.adam_m_;
  adam_v_ = other.adam_v_;
  if (other.borrowed()) {
    // Copies of a snapshot-backed model share the mapped backing.
    params_v_ = other.params_v_;
    adam_m_v_ = other.adam_m_v_;
    adam_v_v_ = other.adam_v_v_;
    keepalive_ = other.keepalive_;
  } else {
    keepalive_ = nullptr;
    Reseat();
  }
  return *this;
}

Transformer& Transformer::operator=(Transformer&& other) noexcept {
  if (this == &other) return *this;
  bool was_borrowed = other.borrowed();
  config_ = other.config_;
  layout_ = std::move(other.layout_);
  adam_step_ = other.adam_step_;
  params_v_ = other.params_v_;
  adam_m_v_ = other.adam_m_v_;
  adam_v_v_ = other.adam_v_v_;
  params_ = std::move(other.params_);
  adam_m_ = std::move(other.adam_m_);
  adam_v_ = std::move(other.adam_v_);
  keepalive_ = std::move(other.keepalive_);
  if (!was_borrowed) Reseat();
  other.params_.clear();
  other.adam_m_.clear();
  other.adam_v_.clear();
  other.Reseat();
  other.keepalive_ = nullptr;
  return *this;
}

void Transformer::Detach() {
  if (!borrowed()) return;
  params_.assign(params_v_.begin(), params_v_.end());
  adam_m_.assign(adam_m_v_.begin(), adam_m_v_.end());
  adam_v_.assign(adam_v_v_.begin(), adam_v_v_.end());
  keepalive_ = nullptr;
  Reseat();
}

int Transformer::SpecialTokensGuard() { return 6; }

Result<double> Transformer::ForwardBackward(const LmExample& example,
                                            float* grads) const {
  const TransformerConfig& c = config_;
  const TransformerLayout& lay = *layout_;
  const float* P = params_v_.data();

  if (example.tokens.size() != example.loss_mask.size()) {
    return Status::InvalidArgument("tokens/loss_mask size mismatch");
  }
  if (example.tokens.size() < 2) {
    return Status::InvalidArgument("example needs at least two tokens");
  }
  // Left-truncate to max_seq (answers live at the end of the sequence).
  const std::size_t drop =
      example.tokens.size() -
      std::min(example.tokens.size(), static_cast<std::size_t>(c.max_seq));
  const int* tokens = example.tokens.data() + drop;
  const std::uint8_t* mask = example.loss_mask.data() + drop;
  const int T = static_cast<int>(example.tokens.size() - drop);
  const int D = c.d_model, H = c.n_heads, Dh = D / H, F = c.d_ff,
            V = c.vocab_size, L = c.n_layers;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(Dh));
  auto TD = static_cast<std::size_t>(T) * D;
  auto TF = static_cast<std::size_t>(T) * F;
  static thread_local TrainScratch scratch;

  // Loss positions: predict tokens[t] from prefix ending at t-1, for every
  // t >= 1 with mask[t] set.
  std::vector<int>& loss_pos = scratch.loss_pos;
  loss_pos.clear();
  for (int t = 1; t < T; ++t) {
    if (mask[t]) loss_pos.push_back(t);
  }
  if (loss_pos.empty()) {
    return Status::InvalidArgument("no positions carry loss");
  }
  const int n_loss = static_cast<int>(loss_pos.size());

  // ---- forward ----
  DecodeState& state = scratch.state;
  state.Bind(c);
  ForwardActivations& acts = scratch.acts;
  acts.layers.resize(static_cast<std::size_t>(L));
  DIMQR_RETURN_NOT_OK(Forward(tokens, T, state, &acts));
  const float* x = state.rows_x_.data();
  std::vector<float>& lnf = scratch.lnf;
  std::vector<float>& lnf_mean = scratch.lnf_mean;
  std::vector<float>& lnf_rstd = scratch.lnf_rstd;
  lnf.resize(TD);
  lnf_mean.resize(static_cast<std::size_t>(T));
  lnf_rstd.resize(static_cast<std::size_t>(T));
  LayerNormRows(x, P + lay.lnf_g, P + lay.lnf_b, lnf.data(), T, D,
                lnf_mean.data(), lnf_rstd.data());

  // Gather the hidden rows that feed the loss and run the head ONCE as an
  // n_loss-row GEMM with the softmax folded into its epilogue — the old
  // code paid a separate D x V pass (plus a full softmax) per position.
  std::vector<float>& hs = scratch.hs;
  hs.resize(static_cast<std::size_t>(n_loss) * D);
  for (int r = 0; r < n_loss; ++r) {
    std::memcpy(hs.data() + static_cast<std::size_t>(r) * D,
                lnf.data() + static_cast<std::size_t>(loss_pos[r] - 1) * D,
                sizeof(float) * static_cast<std::size_t>(D));
  }
  std::vector<float>& probs = scratch.probs;
  probs.resize(static_cast<std::size_t>(n_loss) * V);
  Epilogue head_epi;
  head_epi.softmax_rows = true;
  MatMulEx(hs.data(), P + lay.w_head, probs.data(), n_loss, D, V, head_epi);

  double loss = 0.0;
  const float loss_scale = 1.0f / static_cast<float>(n_loss);
  for (int r = 0; r < n_loss; ++r) {
    const float* prow = probs.data() + static_cast<std::size_t>(r) * V;
    loss -= std::log(
        std::max(prow[tokens[static_cast<std::size_t>(loss_pos[r])]], 1e-12f));
  }
  loss /= n_loss;
  if (grads == nullptr) return loss;

  float* G = grads;
  // dlogits = (probs - onehot(target)) * loss_scale, reusing probs in place;
  // then both head gradients are single GEMMs over the gathered rows.
  for (int r = 0; r < n_loss; ++r) {
    float* prow = probs.data() + static_cast<std::size_t>(r) * V;
    prow[tokens[static_cast<std::size_t>(loss_pos[r])]] -= 1.0f;
    for (int vtok = 0; vtok < V; ++vtok) prow[vtok] *= loss_scale;
  }
  MatMulGradB(hs.data(), probs.data(), G + lay.w_head, n_loss, D, V);
  std::vector<float>& dhs = scratch.dhs;
  dhs.assign(static_cast<std::size_t>(n_loss) * D, 0.0f);
  MatMulGradA(probs.data(), P + lay.w_head, dhs.data(), n_loss, D, V);
  std::vector<float>& dlnf = scratch.dlnf;  // gradient wrt lnf rows
  dlnf.assign(TD, 0.0f);
  for (int r = 0; r < n_loss; ++r) {
    const float* srow = dhs.data() + static_cast<std::size_t>(r) * D;
    float* drow =
        dlnf.data() + static_cast<std::size_t>(loss_pos[r] - 1) * D;
    for (int i = 0; i < D; ++i) drow[i] += srow[i];
  }
  // ---- backward ----
  std::vector<float>& dx = scratch.dx;
  dx.assign(TD, 0.0f);
  for (int t = 0; t < T; ++t) {
    LayerNormRowBackward(x + static_cast<std::size_t>(t) * D,
                         P + lay.lnf_g,
                         dlnf.data() + static_cast<std::size_t>(t) * D,
                         lnf_mean[t], lnf_rstd[t],
                         dx.data() + static_cast<std::size_t>(t) * D,
                         G + lay.lnf_g, G + lay.lnf_b, D);
  }

  std::vector<float>& d_mid = scratch.d_mid;
  std::vector<float>& d_ln2 = scratch.d_ln2;
  std::vector<float>& d_ff_act = scratch.d_ff_act;
  std::vector<float>& d_ff_pre = scratch.d_ff_pre;
  std::vector<float>& d_ctx = scratch.d_ctx;
  std::vector<float>& d_ln1 = scratch.d_ln1;
  std::vector<float>& d_qkv = scratch.d_qkv;
  std::vector<float>& d_att = scratch.d_att;
  d_ln2.resize(TD);
  d_ctx.resize(TD);
  d_ln1.resize(TD);
  d_ff_pre.resize(TF);
  for (int l = L - 1; l >= 0; --l) {
    const TransformerLayout::Layer& W = lay.layers[l];
    const ForwardActivations::Layer& a = acts.layers[l];
    // dx is gradient wrt the layer's output rows.
    // x_out = x_mid + (gelu(ln2.W1+b1)).W2 + b2
    d_ff_act.assign(TF, 0.0f);
    MatMulGradA(dx.data(), P + W.w2, d_ff_act.data(), T, F, D);
    MatMulGradB(a.ff_act.data(), dx.data(), G + W.w2, T, F, D);
    for (int t = 0; t < T; ++t) {
      for (int i = 0; i < D; ++i) {
        G[W.b2 + i] += dx[static_cast<std::size_t>(t) * D + i];
      }
    }
    kernels::GeluBackward(a.ff_pre.data(), a.ff_tanh.data(), d_ff_act.data(),
                          d_ff_pre.data(), TF);
    std::fill(d_ln2.begin(), d_ln2.end(), 0.0f);
    MatMulGradA(d_ff_pre.data(), P + W.w1, d_ln2.data(), T, D, F);
    MatMulGradB(a.ln2.data(), d_ff_pre.data(), G + W.w1, T, D, F);
    for (int t = 0; t < T; ++t) {
      for (int i = 0; i < F; ++i) {
        G[W.b1 + i] += d_ff_pre[static_cast<std::size_t>(t) * F + i];
      }
    }
    // residual: d_mid = dx (from skip) + LN2 backward contribution
    d_mid = dx;
    for (int t = 0; t < T; ++t) {
      LayerNormRowBackward(a.x_mid.data() + static_cast<std::size_t>(t) * D,
                           P + W.ln2_g,
                           d_ln2.data() + static_cast<std::size_t>(t) * D,
                           a.ln2_mean[t], a.ln2_rstd[t],
                           d_mid.data() + static_cast<std::size_t>(t) * D,
                           G + W.ln2_g, G + W.ln2_b, D);
    }
    // x_mid = x_in + ctx.Wo + bo
    std::fill(d_ctx.begin(), d_ctx.end(), 0.0f);
    MatMulGradA(d_mid.data(), P + W.w_o, d_ctx.data(), T, D, D);
    MatMulGradB(a.ctx.data(), d_mid.data(), G + W.w_o, T, D, D);
    for (int t = 0; t < T; ++t) {
      for (int i = 0; i < D; ++i) {
        G[W.b_o + i] += d_mid[static_cast<std::size_t>(t) * D + i];
      }
    }
    // attention backward
    d_qkv.assign(static_cast<std::size_t>(T) * 3 * D, 0.0f);
    d_att.assign(static_cast<std::size_t>(T) * T, 0.0f);
    for (int h = 0; h < H; ++h) {
      for (int t = 0; t < T; ++t) {
        const float* att_row =
            a.att.data() + (static_cast<std::size_t>(h) * T + t) * T;
        const float* dctx =
            d_ctx.data() + static_cast<std::size_t>(t) * D + h * Dh;
        float* datt_row = d_att.data() + static_cast<std::size_t>(t) * T;
        // d att[u] = dctx . v_u ; dv_u += att[u] * dctx
        for (int u = 0; u <= t; ++u) {
          const float* v = a.qkv.data() +
                           static_cast<std::size_t>(u) * 3 * D + 2 * D + h * Dh;
          float* dv = d_qkv.data() +
                      static_cast<std::size_t>(u) * 3 * D + 2 * D + h * Dh;
          float acc = 0.0f;
          float w = att_row[u];
          for (int i = 0; i < Dh; ++i) {
            acc += dctx[i] * v[i];
            dv[i] += w * dctx[i];
          }
          datt_row[u] = acc;
        }
        // softmax backward -> scores gradient
        float dot = 0.0f;
        for (int u = 0; u <= t; ++u) dot += datt_row[u] * att_row[u];
        const float* q =
            a.qkv.data() + static_cast<std::size_t>(t) * 3 * D + h * Dh;
        float* dq = d_qkv.data() + static_cast<std::size_t>(t) * 3 * D + h * Dh;
        for (int u = 0; u <= t; ++u) {
          float dscore = att_row[u] * (datt_row[u] - dot) * inv_sqrt_dh;
          const float* k =
              a.qkv.data() + static_cast<std::size_t>(u) * 3 * D + D + h * Dh;
          float* dk = d_qkv.data() +
                      static_cast<std::size_t>(u) * 3 * D + D + h * Dh;
          for (int i = 0; i < Dh; ++i) {
            dq[i] += dscore * k[i];
            dk[i] += dscore * q[i];
          }
        }
      }
    }
    // qkv = ln1 . Wqkv + bqkv
    std::fill(d_ln1.begin(), d_ln1.end(), 0.0f);
    MatMulGradA(d_qkv.data(), P + W.w_qkv, d_ln1.data(), T, D, 3 * D);
    MatMulGradB(a.ln1.data(), d_qkv.data(), G + W.w_qkv, T, D, 3 * D);
    for (int t = 0; t < T; ++t) {
      for (int i = 0; i < 3 * D; ++i) {
        G[W.b_qkv + i] += d_qkv[static_cast<std::size_t>(t) * 3 * D + i];
      }
    }
    // residual: d x_in = d_mid (skip) + LN1 backward
    dx = d_mid;
    for (int t = 0; t < T; ++t) {
      LayerNormRowBackward(a.x_in.data() + static_cast<std::size_t>(t) * D,
                           P + W.ln1_g,
                           d_ln1.data() + static_cast<std::size_t>(t) * D,
                           a.ln1_mean[t], a.ln1_rstd[t],
                           dx.data() + static_cast<std::size_t>(t) * D,
                           G + W.ln1_g, G + W.ln1_b, D);
    }
  }
  // embeddings
  for (int t = 0; t < T; ++t) {
    float* gte = G + lay.tok_emb + static_cast<std::size_t>(tokens[t]) * D;
    float* gpe = G + lay.pos_emb + static_cast<std::size_t>(t) * D;
    const float* drow = dx.data() + static_cast<std::size_t>(t) * D;
    for (int i = 0; i < D; ++i) {
      gte[i] += drow[i];
      gpe[i] += drow[i];
    }
  }
  return loss;
}

Result<double> Transformer::Loss(const LmExample& example) const {
  return ForwardBackward(example, nullptr);
}

Result<double> Transformer::TrainBatch(const std::vector<LmExample>& batch,
                                       double learning_rate) {
  Detach();  // snapshot-backed weights become owned before mutation
  if (batch.empty()) {
    return Status::InvalidArgument("empty training batch");
  }
  const auto n = static_cast<std::int64_t>(batch.size());
  // Examples are grouped into at most 8 chunks; each chunk accumulates its
  // examples (in index order) into its own gradient buffer, and FoldAdam
  // folds the chunk buffers together in chunk order. The grouping is a
  // function of the batch size only, so the gradient — and the loss below —
  // is bit-for-bit identical at every DIMQR_THREADS setting.
  const std::int64_t grain = (n + 7) / 8;
  const int chunks = NumChunks(n, grain);
  // The calling thread's workspace. The chunk bodies run on pool workers,
  // so they reach it through the capture: a thread_local named inside a
  // body would be each worker's own, empty, instance.
  static thread_local TrainWorkspace workspace;
  workspace.Bind(params_.size(), chunks);
  // Both bodies capture this one frame by reference, a single pointer, so
  // std::function keeps them in place instead of on the heap.
  struct Frame {
    Transformer& model;
    const std::vector<LmExample>& batch;
    TrainWorkspace& ws;
    int chunks;
    kernels::AdamStep adam;
  } f{*this, batch, workspace, chunks, {}};
  Status st = ParallelFor(
      n,
      [&f](std::int64_t begin, std::int64_t end, int chunk) -> Status {
        float* grads = f.ws.chunk_data[static_cast<std::size_t>(chunk)];
        double loss_sum = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          DIMQR_ASSIGN_OR_RETURN(
              double loss,
              f.model.ForwardBackward(f.batch[static_cast<std::size_t>(i)],
                                      grads));
          loss_sum += loss;
        }
        f.ws.loss[static_cast<std::size_t>(chunk)] = loss_sum;
        return Status::OK();
      },
      grain);
  if (!st.ok()) {
    // Chunks that ran before or beside the failure have accumulated; clear
    // them so the next step starts from zero, as a fresh one would.
    for (int c = 0; c < chunks; ++c) {
      std::fill(workspace.grads[c].begin(), workspace.grads[c].end(), 0.0f);
    }
    return st;
  }
  double loss = workspace.loss[0];
  for (int c = 1; c < chunks; ++c) loss += workspace.loss[c];

  ++adam_step_;
  const float beta1 = 0.9f, beta2 = 0.999f;
  const auto t = static_cast<float>(adam_step_);
  f.adam = {.beta1 = beta1,
            .beta2 = beta2,
            .eps = 1e-8f,
            .bc1 = 1.0f - std::pow(beta1, t),
            .bc2 = 1.0f - std::pow(beta2, t),
            .lr = static_cast<float>(learning_rate),
            .inv_n = 1.0f / static_cast<float>(batch.size())};
  // The fold and the Adam update are elementwise — no cross-index
  // accumulation — so they run at any chunking without touching the
  // numbers.
  DIMQR_RETURN_NOT_OK(ParallelFor(
      static_cast<std::int64_t>(params_.size()),
      [&f](std::int64_t begin, std::int64_t end, int) {
        Transformer& m = f.model;
        kernels::FoldAdam(f.ws.chunk_data.data(), f.chunks,
                          static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end), f.adam,
                          m.params_.data(), m.adam_m_.data(),
                          m.adam_v_.data());
        return Status::OK();
      }));
  return loss / static_cast<double>(batch.size());
}

// ---------------------------------------------------------------------------
// The forward pass. One row-batched `Forward` runs every layer for both
// training and decode; the entry points differ only in what they do with
// the final residual rows it leaves in the state:
//   ForwardBackward — LayerNorm + softmax head on every loss row, backward;
//   Prefill         — LayerNorm + head on the last row only (next logits);
//   Step            — Prefill of one token;
//   Greedy          — truncate, (optionally fork a PrefixCache snapshot,)
//                     Prefill the prompt, then Step per generated token.
// Row t of the KV cache is a pure function of tokens[0..t] and the weights,
// and every kernel evaluates a row the same way whatever the batch, so one
// n-token Prefill and n Steps fill bit-identical caches and logits — the
// equivalence suite in tests/lm/decode_fastpath_test.cc asserts EXPECT_EQ
// on raw float vectors — and the loss of a last-token example is exactly
// the cross-entropy of NextLogits over its prefix.
// ---------------------------------------------------------------------------

bool DecodeState::BoundTo(const TransformerConfig& c) const {
  return max_seq_ == c.max_seq && d_model_ == c.d_model &&
         n_layers_ == c.n_layers && d_ff_ == c.d_ff && vocab_ == c.vocab_size;
}

void DecodeState::Bind(const TransformerConfig& c) {
  if (!BoundTo(c)) {
    max_seq_ = c.max_seq;
    d_model_ = c.d_model;
    n_layers_ = c.n_layers;
    d_ff_ = c.d_ff;
    vocab_ = c.vocab_size;
    const auto rows = static_cast<std::size_t>(max_seq_);
    const auto d = static_cast<std::size_t>(d_model_);
    keys_.assign(static_cast<std::size_t>(n_layers_),
                 AlignedVec<float>(rows * d, 0.0f));
    values_.assign(static_cast<std::size_t>(n_layers_),
                   AlignedVec<float>(rows * d, 0.0f));
    att_.assign(rows, 0.0f);
    h_.assign(d, 0.0f);
    logits_.assign(static_cast<std::size_t>(vocab_), 0.0f);
    rows_x_.assign(rows * d, 0.0f);
    rows_ln_.assign(rows * d, 0.0f);
    rows_qkv_.assign(rows * 3 * d, 0.0f);
    rows_ctx_.assign(rows * d, 0.0f);
    rows_proj_.assign(rows * d, 0.0f);
    rows_ff_.assign(rows * static_cast<std::size_t>(d_ff_), 0.0f);
  }
  position_ = 0;
}

DecodeState& ThreadLocalDecodeState() {
  static thread_local DecodeState state;
  return state;
}

Status Transformer::Forward(const int* tokens, int n, DecodeState& state,
                            ForwardActivations* acts) const {
  const TransformerConfig& c = config_;
  if (!state.BoundTo(c)) state.Bind(c);
  const int p0 = state.position_;
  if (p0 + n > c.max_seq) {
    return Status::OutOfRange("decode exceeded max_seq");
  }
  for (int r = 0; r < n; ++r) {
    if (tokens[r] < 0 || tokens[r] >= c.vocab_size) {
      return Status::InvalidArgument("token id out of range");
    }
  }
  const TransformerLayout& lay = *layout_;
  const float* P = params_v_.data();
  const int D = c.d_model, H = c.n_heads, Dh = D / H, F = c.d_ff;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(Dh));
  const auto nd = static_cast<std::size_t>(n) * D;

  // The residual stream; row r is position p0 + r.
  float* X = state.rows_x_.data();
  for (int r = 0; r < n; ++r) {
    const float* te =
        P + lay.tok_emb + static_cast<std::size_t>(tokens[r]) * D;
    const float* pe = P + lay.pos_emb + static_cast<std::size_t>(p0 + r) * D;
    float* xrow = X + static_cast<std::size_t>(r) * D;
    for (int i = 0; i < D; ++i) xrow[i] = te[i] + pe[i];
  }
  float* proj = state.rows_proj_.data();
  for (int l = 0; l < c.n_layers; ++l) {
    const TransformerLayout::Layer& W = lay.layers[static_cast<std::size_t>(l)];
    // Decode reuses one set of scratch rows and updates X in place (one
    // attention row at a time in att_); training redirects every write into
    // its own buffer in `acts`. The arithmetic is the same: the fused
    // epilogue gives the same bits whether residual and out alias or not.
    float *x_in = X, *x_mid = X, *ln1 = state.rows_ln_.data(), *ln2 = ln1;
    float *qkv = state.rows_qkv_.data(), *ctx = state.rows_ctx_.data();
    float *ff_pre = state.rows_ff_.data(), *ff_act = ff_pre;
    float* ff_tanh = nullptr;
    float* att = state.att_.data();
    float *ln1_mean = nullptr, *ln1_rstd = nullptr;
    float *ln2_mean = nullptr, *ln2_rstd = nullptr;
    if (acts != nullptr) {  // state is at position 0, so rows == positions
      ForwardActivations::Layer& a = acts->layers[static_cast<std::size_t>(l)];
      auto take = [](AlignedVec<float>& v, std::size_t size) {
        v.resize(size);
        return v.data();
      };
      const auto nf = static_cast<std::size_t>(n) * F;
      a.x_in.assign(X, X + nd);
      x_in = a.x_in.data();
      x_mid = take(a.x_mid, nd);
      ln1 = take(a.ln1, nd);
      ln2 = take(a.ln2, nd);
      qkv = take(a.qkv, 3 * nd);
      att = take(a.att, static_cast<std::size_t>(H) * n * n);
      ctx = take(a.ctx, nd);
      ff_pre = take(a.ff_pre, nf);
      ff_act = take(a.ff_act, nf);
      ff_tanh = take(a.ff_tanh, nf);
      ln1_mean = take(a.ln1_mean, static_cast<std::size_t>(n));
      ln1_rstd = take(a.ln1_rstd, static_cast<std::size_t>(n));
      ln2_mean = take(a.ln2_mean, static_cast<std::size_t>(n));
      ln2_rstd = take(a.ln2_rstd, static_cast<std::size_t>(n));
    }
    LayerNormRows(x_in, P + W.ln1_g, P + W.ln1_b, ln1, n, D, ln1_mean,
                  ln1_rstd);
    Epilogue qkv_epi;
    qkv_epi.bias = P + W.b_qkv;
    MatMulEx(ln1, P + W.w_qkv, qkv, n, D, 3 * D, qkv_epi);
    float* kcache = state.keys_[static_cast<std::size_t>(l)].data();
    float* vcache = state.values_[static_cast<std::size_t>(l)].data();
    for (int r = 0; r < n; ++r) {
      const float* qrow = qkv + static_cast<std::size_t>(r) * 3 * D;
      std::copy(qrow + D, qrow + 2 * D,
                kcache + static_cast<std::size_t>(p0 + r) * D);
      std::copy(qrow + 2 * D, qrow + 3 * D,
                vcache + static_cast<std::size_t>(p0 + r) * D);
    }
    std::fill(ctx, ctx + nd, 0.0f);
    for (int h = 0; h < H; ++h) {
      for (int r = 0; r < n; ++r) {
        const int t = p0 + r;
        const float* q = qkv + static_cast<std::size_t>(r) * 3 * D + h * Dh;
        float* att_row =
            acts != nullptr ? att + (static_cast<std::size_t>(h) * n + r) * n
                            : att;
        float maxv = -1e30f;
        for (int u = 0; u <= t; ++u) {
          const float* k = kcache + static_cast<std::size_t>(u) * D + h * Dh;
          float dot = 0.0f;
          for (int i = 0; i < Dh; ++i) dot += q[i] * k[i];
          dot *= inv_sqrt_dh;
          att_row[u] = dot;
          if (dot > maxv) maxv = dot;
        }
        float denom = 0.0f;
        for (int u = 0; u <= t; ++u) {
          att_row[u] = std::exp(att_row[u] - maxv);
          denom += att_row[u];
        }
        float inv_denom = 1.0f / denom;
        for (int u = 0; u <= t; ++u) att_row[u] *= inv_denom;
        float* crow = ctx + static_cast<std::size_t>(r) * D + h * Dh;
        for (int u = 0; u <= t; ++u) {
          const float* v = vcache + static_cast<std::size_t>(u) * D + h * Dh;
          float w = att_row[u];
          for (int i = 0; i < Dh; ++i) crow[i] += w * v[i];
        }
      }
    }
    // Output projection + residual (bias and skip fused into the GEMM).
    Epilogue o_epi;
    o_epi.bias = P + W.b_o;
    o_epi.residual = x_in;
    o_epi.out = x_mid;
    MatMulEx(ctx, P + W.w_o, proj, n, D, D, o_epi);
    // MLP. ff_pre keeps the post-bias preactivation for backward; the GELU
    // lands in ff_act from the same fused pass (in place when they alias),
    // and training also keeps the GELU's tanh for GeluBackward.
    LayerNormRows(x_mid, P + W.ln2_g, P + W.ln2_b, ln2, n, D, ln2_mean,
                  ln2_rstd);
    Epilogue ff_epi;
    ff_epi.bias = P + W.b1;
    ff_epi.gelu_out = ff_act;
    ff_epi.tanh_out = ff_tanh;
    MatMulEx(ln2, P + W.w1, ff_pre, n, D, F, ff_epi);
    Epilogue out_epi;
    out_epi.bias = P + W.b2;
    out_epi.residual = x_mid;
    out_epi.out = X;
    MatMulEx(ff_act, P + W.w2, proj, n, F, D, out_epi);
  }
  state.position_ = p0 + n;
  return Status::OK();
}

Status Transformer::Prefill(const int* tokens, int n,
                            DecodeState& state) const {
  if (tokens == nullptr || n <= 0) {
    return Status::InvalidArgument("empty prefill");
  }
  DIMQR_RETURN_NOT_OK(Forward(tokens, n, state, nullptr));
  // Output head for the last row only: the prompt's other rows only feed
  // the KV cache.
  const TransformerLayout& lay = *layout_;
  const float* P = params_v_.data();
  const int D = config_.d_model;
  LayerNormRows(state.rows_x_.data() + static_cast<std::size_t>(n - 1) * D,
                P + lay.lnf_g, P + lay.lnf_b, state.h_.data(), 1, D, nullptr,
                nullptr);
  MatMul(state.h_.data(), P + lay.w_head, state.logits_.data(), 1, D,
         config_.vocab_size);
  return Status::OK();
}

Result<std::vector<float>> Transformer::NextLogits(
    const std::vector<int>& prefix) const {
  if (prefix.empty()) {
    return Status::InvalidArgument("empty prefix");
  }
  // One batched Prefill of the (left-truncated) prefix; the logits after
  // its last token are exactly what the retired dummy-token probe computed,
  // without wasting a context slot on the dummy.
  const std::size_t keep =
      std::min(prefix.size(), static_cast<std::size_t>(config_.max_seq));
  DecodeState& state = ThreadLocalDecodeState();
  state.Bind(config_);
  DIMQR_RETURN_NOT_OK(Prefill(prefix.data() + (prefix.size() - keep),
                              static_cast<int>(keep), state));
  return state.logits();
}

Result<std::vector<int>> Transformer::Greedy(const std::vector<int>& prefix,
                                             int max_new, int eos) const {
  return Greedy(prefix, max_new, eos, ThreadLocalDecodeState(), nullptr);
}

Result<std::vector<int>> Transformer::Greedy(const std::vector<int>& prefix,
                                             int max_new, int eos,
                                             DecodeState& state,
                                             PrefixCache* cache) const {
  if (prefix.empty()) return Status::InvalidArgument("empty prefix");
  // Left-truncate to leave room for generation.
  std::vector<int> start = prefix;
  int budget = config_.max_seq - max_new;
  if (budget < 1) budget = 1;
  if (static_cast<int>(start.size()) > budget) {
    start.erase(start.begin(),
                start.end() - static_cast<std::ptrdiff_t>(budget));
  }
  DIMQR_RETURN_NOT_OK(PrefillWithCache(start, state, cache).status());
  const std::vector<float>& logits = state.logits();
  std::vector<int> generated;
  for (int step = 0; step < max_new; ++step) {
    int best = ArgmaxLowest(logits);
    if (best == eos) break;
    generated.push_back(best);
    if (state.position_ >= config_.max_seq) break;
    DIMQR_RETURN_NOT_OK(Step(state, best));
  }
  return generated;
}

Result<int> Transformer::PrefillWithCache(const std::vector<int>& tokens,
                                          DecodeState& state,
                                          PrefixCache* cache) const {
  if (tokens.empty()) return Status::InvalidArgument("empty prompt");
  if (static_cast<int>(tokens.size()) > config_.max_seq) {
    return Status::OutOfRange("prompt exceeds max_seq");
  }
  state.Bind(config_);
  // Fork the longest cached snapshot of this prompt, then prefill only the
  // unshared tail (Seed always leaves >= 1 token so the logits are fresh).
  int seeded = 0;
  if (cache != nullptr) seeded = cache->Seed(tokens, state);
  DIMQR_RETURN_NOT_OK(Prefill(tokens.data() + seeded,
                              static_cast<int>(tokens.size()) - seeded,
                              state));
  if (cache != nullptr) cache->Insert(tokens, state);
  return seeded;
}

namespace {

/// Fixed-width serialized form of TransformerConfig + optimizer step.
struct TransformerConfigPod {
  std::int32_t vocab_size, d_model, n_heads, n_layers, d_ff, max_seq;
  std::uint64_t seed;
  std::int64_t adam_step;
};
static_assert(sizeof(TransformerConfigPod) == 40);

}  // namespace

void Transformer::WriteTo(snapshot::ArenaWriter& writer) const {
  TransformerConfigPod pod{config_.vocab_size, config_.d_model,
                           config_.n_heads,    config_.n_layers,
                           config_.d_ff,       config_.max_seq,
                           config_.seed,       adam_step_};
  writer.PutPod(pod);
  writer.PutArray(params_v_);
  writer.PutArray(adam_m_v_);
  writer.PutArray(adam_v_v_);
}

Result<Transformer> Transformer::FromArena(
    snapshot::ArenaReader& reader,
    std::shared_ptr<const snapshot::Snapshot> keepalive) {
  DIMQR_ASSIGN_OR_RETURN(TransformerConfigPod pod,
                         reader.GetPod<TransformerConfigPod>());
  TransformerConfig config;
  config.vocab_size = pod.vocab_size;
  config.d_model = pod.d_model;
  config.n_heads = pod.n_heads;
  config.n_layers = pod.n_layers;
  config.d_ff = pod.d_ff;
  config.max_seq = pod.max_seq;
  config.seed = pod.seed;
  DIMQR_ASSIGN_OR_RETURN(Transformer model, Shell(config));
  model.adam_step_ = pod.adam_step;
  DIMQR_ASSIGN_OR_RETURN(model.params_v_, reader.GetArray<float>());
  DIMQR_ASSIGN_OR_RETURN(model.adam_m_v_, reader.GetArray<float>());
  DIMQR_ASSIGN_OR_RETURN(model.adam_v_v_, reader.GetArray<float>());
  const std::size_t total = model.layout_->total;
  if (model.params_v_.size() != total || model.adam_m_v_.size() != total ||
      model.adam_v_v_.size() != total) {
    return Status::IOError("transformer snapshot arrays do not match config");
  }
  model.keepalive_ = std::move(keepalive);
  return model;
}

}  // namespace dimqr::lm
