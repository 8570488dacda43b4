#include "model/layer.h"

#include <cmath>

#include "base/strings.h"
#include "tensor/ops.h"

namespace bagua {

DenseLayer::DenseLayer(std::string name, size_t in_dim, size_t out_dim,
                       Activation act)
    : name_(std::move(name)), in_dim_(in_dim), out_dim_(out_dim), act_(act) {
  w_ = Tensor::Zeros({in_dim, out_dim}, name_ + ".w");
  b_ = Tensor::Zeros({out_dim}, name_ + ".b");
  gw_ = Tensor::Zeros({in_dim, out_dim}, name_ + ".w.grad");
  gb_ = Tensor::Zeros({out_dim}, name_ + ".b.grad");
}

void DenseLayer::InitParams(Rng* rng) {
  // Xavier-uniform, the PyTorch default for linear layers.
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_dim_ + out_dim_));
  for (size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng->Uniform(-bound, bound));
  }
  b_.Fill(0.0f);
}

Status DenseLayer::Forward(const Tensor& in, Tensor* out) {
  if (in.numel() % in_dim_ != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: input numel %zu not divisible by in_dim %zu",
                  name_.c_str(), in.numel(), in_dim_));
  }
  const size_t batch = in.numel() / in_dim_;
  input_ = in.Clone();
  *out = Tensor::Zeros({batch, out_dim_}, name_ + ".out");
  Gemm(in.data(), w_.data(), out->data(), batch, in_dim_, out_dim_);
  AddBias(out->data(), b_.data(), batch, out_dim_,
          /*relu=*/act_ == Activation::kRelu);
  if (act_ == Activation::kTanh) {
    for (size_t i = 0; i < out->numel(); ++i) {
      (*out)[i] = std::tanh((*out)[i]);
    }
  }
  output_ = out->Clone();
  return Status::OK();
}

Status DenseLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  if (!input_.defined()) {
    return Status::FailedPrecondition(name_ + ": Backward before Forward");
  }
  const size_t batch = input_.numel() / in_dim_;
  if (grad_out.numel() != batch * out_dim_) {
    return Status::InvalidArgument(name_ + ": grad_out shape mismatch");
  }
  // Gradient through the activation.
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
  // gw[in,out] += input^T [in,batch] * g [batch,out]
  GemmTransA(input_.data(), g.data(), gw_.data(), in_dim_, batch, out_dim_,
             /*accumulate=*/true);
  // gb[out] += column sums of g
  AddRows(g.data(), batch, out_dim_, gb_.data());
  if (grad_in != nullptr) {
    // grad_in[batch,in] = g [batch,out] * W^T (W stored [in,out])
    *grad_in = Tensor::Zeros({batch, in_dim_}, name_ + ".gin");
    GemmTransB(g.data(), w_.data(), grad_in->data(), batch, out_dim_, in_dim_);
  }
  return Status::OK();
}

std::vector<Param> DenseLayer::params() {
  return {{&w_, &gw_, w_.name()}, {&b_, &gb_, b_.name()}};
}

}  // namespace bagua
