#include "model/conv.h"

#include <cmath>
#include <cstring>

#include "base/logging.h"
#include "base/strings.h"
#include "tensor/ops.h"

namespace bagua {

Conv2dLayer::Conv2dLayer(std::string name, size_t in_c, size_t out_c,
                         size_t h, size_t w, size_t k, size_t pad,
                         Activation act)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      h_(h),
      w_(w),
      k_(k),
      pad_(pad),
      act_(act) {
  BAGUA_CHECK_GT(k, 0u);
  BAGUA_CHECK_GE(h + 2 * pad + 1, k);
  BAGUA_CHECK_GE(w + 2 * pad + 1, k);
  out_h_ = h + 2 * pad - k + 1;
  out_w_ = w + 2 * pad - k + 1;
  weight_ = Tensor::Zeros({out_c, in_c * k * k}, name_ + ".w");
  bias_ = Tensor::Zeros({out_c}, name_ + ".b");
  gw_ = Tensor::Zeros({out_c, in_c * k * k}, name_ + ".w.grad");
  gb_ = Tensor::Zeros({out_c}, name_ + ".b.grad");
}

void Conv2dLayer::InitParams(Rng* rng) {
  // He-uniform for conv kernels.
  const float fan_in = static_cast<float>(in_c_ * k_ * k_);
  const float bound = std::sqrt(6.0f / fan_in);
  for (size_t i = 0; i < weight_.numel(); ++i) {
    weight_[i] = static_cast<float>(rng->Uniform(-bound, bound));
  }
  bias_.Fill(0.0f);
}

void Conv2dLayer::Im2Col(const float* image, float* cols) const {
  const size_t cols_w = out_h_ * out_w_;
  for (size_t c = 0; c < in_c_; ++c) {
    for (size_t ky = 0; ky < k_; ++ky) {
      for (size_t kx = 0; kx < k_; ++kx) {
        const size_t row = (c * k_ + ky) * k_ + kx;
        for (size_t oy = 0; oy < out_h_; ++oy) {
          const long iy = static_cast<long>(oy + ky) - static_cast<long>(pad_);
          for (size_t ox = 0; ox < out_w_; ++ox) {
            const long ix =
                static_cast<long>(ox + kx) - static_cast<long>(pad_);
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<long>(h_) && ix >= 0 &&
                ix < static_cast<long>(w_)) {
              v = image[(c * h_ + iy) * w_ + ix];
            }
            cols[row * cols_w + oy * out_w_ + ox] = v;
          }
        }
      }
    }
  }
}

void Conv2dLayer::Col2Im(const float* cols, float* image) const {
  std::memset(image, 0, in_c_ * h_ * w_ * sizeof(float));
  const size_t cols_w = out_h_ * out_w_;
  for (size_t c = 0; c < in_c_; ++c) {
    for (size_t ky = 0; ky < k_; ++ky) {
      for (size_t kx = 0; kx < k_; ++kx) {
        const size_t row = (c * k_ + ky) * k_ + kx;
        for (size_t oy = 0; oy < out_h_; ++oy) {
          const long iy = static_cast<long>(oy + ky) - static_cast<long>(pad_);
          if (iy < 0 || iy >= static_cast<long>(h_)) continue;
          for (size_t ox = 0; ox < out_w_; ++ox) {
            const long ix =
                static_cast<long>(ox + kx) - static_cast<long>(pad_);
            if (ix < 0 || ix >= static_cast<long>(w_)) continue;
            image[(c * h_ + iy) * w_ + ix] +=
                cols[row * cols_w + oy * out_w_ + ox];
          }
        }
      }
    }
  }
}

Status Conv2dLayer::Forward(const Tensor& in, Tensor* out) {
  const size_t in_dim = in_c_ * h_ * w_;
  if (in.numel() % in_dim != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: input numel %zu not divisible by %zu", name_.c_str(),
                  in.numel(), in_dim));
  }
  const size_t batch = in.numel() / in_dim;
  input_ = in.Clone();
  *out = Tensor::Zeros({batch, out_dim()}, name_ + ".out");

  const size_t cols_h = in_c_ * k_ * k_;
  const size_t cols_w = out_h_ * out_w_;
  std::vector<float> cols(cols_h * cols_w);
  for (size_t b = 0; b < batch; ++b) {
    Im2Col(in.data() + b * in_dim, cols.data());
    // out[b] = W [out_c, cols_h] * cols [cols_h, cols_w]
    Gemm(weight_.data(), cols.data(), out->data() + b * out_dim(), out_c_,
         cols_h, cols_w);
    float* ob = out->data() + b * out_dim();
    for (size_t oc = 0; oc < out_c_; ++oc) {
      for (size_t p = 0; p < cols_w; ++p) ob[oc * cols_w + p] += bias_[oc];
    }
  }
  switch (act_) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < out->numel(); ++i) {
        if ((*out)[i] < 0.0f) (*out)[i] = 0.0f;
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < out->numel(); ++i) {
        (*out)[i] = std::tanh((*out)[i]);
      }
      break;
  }
  output_ = out->Clone();
  return Status::OK();
}

Status Conv2dLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (!input_.defined()) {
    return Status::FailedPrecondition(name_ + ": Backward before Forward");
  }
  const size_t in_dim = in_c_ * h_ * w_;
  const size_t batch = input_.numel() / in_dim;
  if (grad_out.numel() != batch * out_dim()) {
    return Status::InvalidArgument(name_ + ": grad_out shape mismatch");
  }
  Tensor g = grad_out.Clone();
  switch (act_) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      ReluMask(output_.data(), g.data(), g.numel());
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < g.numel(); ++i) {
        g[i] *= 1.0f - output_[i] * output_[i];
      }
      break;
  }
  if (grad_in != nullptr) {
    *grad_in = Tensor::Zeros({batch, in_dim}, name_ + ".gin");
  }
  const size_t cols_h = in_c_ * k_ * k_;
  const size_t cols_w = out_h_ * out_w_;
  std::vector<float> cols(cols_h * cols_w);
  std::vector<float> dcols(cols_h * cols_w);
  for (size_t b = 0; b < batch; ++b) {
    Im2Col(input_.data() + b * in_dim, cols.data());
    const float* gb = g.data() + b * out_dim();
    // gw [out_c, cols_h] += g_b [out_c, cols_w] * cols^T (cols stored
    // [cols_h, cols_w]).
    GemmTransB(gb, cols.data(), gw_.data(), out_c_, cols_w, cols_h,
               /*accumulate=*/true);
    for (size_t oc = 0; oc < out_c_; ++oc) {
      double s = 0.0;
      for (size_t p = 0; p < cols_w; ++p) s += gb[oc * cols_w + p];
      gb_[oc] += static_cast<float>(s);
    }
    if (grad_in != nullptr) {
      // dcols [cols_h, cols_w] = W^T [cols_h, out_c] * g_b [out_c, cols_w]
      GemmTransA(weight_.data(), gb, dcols.data(), cols_h, out_c_, cols_w);
      Col2Im(dcols.data(), grad_in->data() + b * in_dim);
    }
  }
  return Status::OK();
}

std::vector<Param> Conv2dLayer::params() {
  return {{&weight_, &gw_, weight_.name()}, {&bias_, &gb_, bias_.name()}};
}

MaxPool2dLayer::MaxPool2dLayer(std::string name, size_t channels, size_t h,
                               size_t w)
    : name_(std::move(name)), channels_(channels), h_(h), w_(w) {
  BAGUA_CHECK_EQ(h % 2, 0u);
  BAGUA_CHECK_EQ(w % 2, 0u);
}

Status MaxPool2dLayer::Forward(const Tensor& in, Tensor* out) {
  const size_t in_dim = channels_ * h_ * w_;
  if (in.numel() % in_dim != 0) {
    return Status::InvalidArgument(name_ + ": input shape mismatch");
  }
  batch_ = in.numel() / in_dim;
  const size_t oh = h_ / 2, ow = w_ / 2;
  *out = Tensor::Zeros({batch_, out_dim()}, name_ + ".out");
  argmax_.assign(batch_ * out_dim(), 0);
  for (size_t b = 0; b < batch_; ++b) {
    const float* ib = in.data() + b * in_dim;
    float* ob = out->data() + b * out_dim();
    for (size_t c = 0; c < channels_; ++c) {
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          float best = -1e30f;
          uint32_t best_idx = 0;
          for (size_t dy = 0; dy < 2; ++dy) {
            for (size_t dx = 0; dx < 2; ++dx) {
              const size_t idx =
                  (c * h_ + 2 * oy + dy) * w_ + (2 * ox + dx);
              if (ib[idx] > best) {
                best = ib[idx];
                best_idx = static_cast<uint32_t>(idx);
              }
            }
          }
          const size_t oidx = (c * oh + oy) * ow + ox;
          ob[oidx] = best;
          argmax_[b * out_dim() + oidx] = best_idx;
        }
      }
    }
  }
  return Status::OK();
}

Status MaxPool2dLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (argmax_.empty()) {
    return Status::FailedPrecondition(name_ + ": Backward before Forward");
  }
  if (grad_out.numel() != batch_ * out_dim()) {
    return Status::InvalidArgument(name_ + ": grad_out shape mismatch");
  }
  if (grad_in == nullptr) return Status::OK();
  const size_t in_dim = channels_ * h_ * w_;
  *grad_in = Tensor::Zeros({batch_, in_dim}, name_ + ".gin");
  for (size_t b = 0; b < batch_; ++b) {
    const float* gb = grad_out.data() + b * out_dim();
    float* gi = grad_in->data() + b * in_dim;
    for (size_t o = 0; o < out_dim(); ++o) {
      gi[argmax_[b * out_dim() + o]] += gb[o];
    }
  }
  return Status::OK();
}

}  // namespace bagua
