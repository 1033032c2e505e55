#include "amg/smoother.hpp"

namespace alps::amg {

void gauss_seidel(const la::Csr& a, std::span<const double> b,
                  std::span<double> x, bool forward) {
  const std::int64_t n = a.rows();
  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  const auto update = [&](std::int64_t r) {
    double s = b[static_cast<std::size_t>(r)];
    double d = 1.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = ci[static_cast<std::size_t>(k)];
      if (c == r)
        d = v[static_cast<std::size_t>(k)];
      else
        s -= v[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(c)];
    }
    if (d != 0.0) x[static_cast<std::size_t>(r)] = s / d;
  };
  if (forward)
    for (std::int64_t r = 0; r < n; ++r) update(r);
  else
    for (std::int64_t r = n - 1; r >= 0; --r) update(r);
}

}  // namespace alps::amg
