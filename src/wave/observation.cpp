#include "wave/observation.hpp"

#include <cmath>
#include <stdexcept>

namespace tsunami {

ObservationOperator::ObservationOperator(
    const AcousticGravityModel& model, std::vector<PointEval> rows,
    std::vector<std::array<double, 2>> positions)
    : model_(model), rows_(std::move(rows)), positions_(std::move(positions)) {}

ObservationOperator ObservationOperator::seafloor_sensors(
    const AcousticGravityModel& model,
    const std::vector<std::array<double, 2>>& positions) {
  std::vector<PointEval> rows;
  rows.reserve(positions.size());
  for (const auto& xy : positions)
    rows.push_back(model.h1().locate_on_bottom(xy[0], xy[1]));
  return ObservationOperator(model, std::move(rows), positions);
}

ObservationOperator ObservationOperator::surface_gauges(
    const AcousticGravityModel& model,
    const std::vector<std::array<double, 2>>& positions) {
  std::vector<PointEval> rows;
  rows.reserve(positions.size());
  const double scale =
      1.0 / (model.constants().rho * model.constants().gravity);
  for (const auto& xy : positions) {
    PointEval row = model.h1().locate_on_surface(xy[0], xy[1]);
    for (auto& w : row.weights) w *= scale;
    rows.push_back(std::move(row));
  }
  return ObservationOperator(model, std::move(rows), positions);
}

void ObservationOperator::apply(std::span<const double> state,
                                std::span<double> d) const {
  if (state.size() != model_.state_dim() || d.size() != rows_.size())
    throw std::invalid_argument("ObservationOperator::apply: size mismatch");
  const auto p = model_.pressure_part(state);
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    const auto& row = rows_[j];
    double s = 0.0;
    for (std::size_t k = 0; k < row.dofs.size(); ++k)
      s += row.weights[k] * p[row.dofs[k]];
    d[j] = s;
  }
}

void ObservationOperator::apply_transpose_add(std::span<const double> coeffs,
                                              std::span<double> state) const {
  if (state.size() != model_.state_dim() || coeffs.size() != rows_.size())
    throw std::invalid_argument(
        "ObservationOperator::apply_transpose_add: size mismatch");
  auto p = model_.pressure_part(state);
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    const double c = coeffs[j];
    if (c == 0.0) continue;
    const auto& row = rows_[j];
    for (std::size_t k = 0; k < row.dofs.size(); ++k)
      p[row.dofs[k]] += c * row.weights[k];
  }
}

std::vector<std::array<double, 2>> sensor_grid(std::size_t n, double x0,
                                               double x1, double y0,
                                               double y1) {
  if (n == 0) return {};
  // Near-square grid: rows x cols >= n, aspect following the rectangle.
  const double aspect = (y1 - y0) / (x1 - x0);
  std::size_t cols = static_cast<std::size_t>(
      std::max(1.0, std::round(std::sqrt(static_cast<double>(n) / aspect))));
  std::size_t grid_rows = (n + cols - 1) / cols;
  std::vector<std::array<double, 2>> out;
  out.reserve(n);
  for (std::size_t r = 0; r < grid_rows && out.size() < n; ++r) {
    for (std::size_t c = 0; c < cols && out.size() < n; ++c) {
      const double fx = (static_cast<double>(c) + 0.5) / static_cast<double>(cols);
      const double fy =
          (static_cast<double>(r) + 0.5) / static_cast<double>(grid_rows);
      out.push_back({x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)});
    }
  }
  return out;
}

}  // namespace tsunami
