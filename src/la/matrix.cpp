#include "la/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "par/parallel.hpp"

namespace perspector::la {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::vector<double> data) {
  if (data.size() != rows * cols) {
    throw std::invalid_argument("Matrix::from_rows: data size mismatch");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::from_row_vectors(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& r : rows) m.append_row(r);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::row_copy(std::size_t r) const {
  auto s = row(r);
  return {s.begin(), s.end()};
}

std::vector<double> Matrix::col_copy(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col_copy");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::set_row: size mismatch");
  }
  auto dst = row(r);
  std::copy(values.begin(), values.end(), dst.begin());
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  if (c >= cols_) throw std::out_of_range("Matrix::set_col");
  if (values.size() != rows_) {
    throw std::invalid_argument("Matrix::set_col: size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

void Matrix::append_row(std::span<const double> values) {
  if (empty() && rows_ == 0) {
    if (cols_ == 0) cols_ = values.size();
  }
  if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: size mismatch");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::multiply: shape mismatch");
  }
  Matrix out(rows_, rhs.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_) {
      throw std::out_of_range("Matrix::select_rows");
    }
    out.set_row(i, row(indices[i]));
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    if (indices[j] >= cols_) {
      throw std::out_of_range("Matrix::select_cols");
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      out(r, j) = (*this)(r, indices[j]);
    }
  }
  return out;
}

Matrix Matrix::hconcat(const Matrix& rhs) const {
  if (rows_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::hconcat: row count mismatch");
  }
  Matrix out(rows_, cols_ + rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) = (*this)(r, c);
    for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, cols_ + c) = rhs(r, c);
  }
  return out;
}

Matrix Matrix::vconcat(const Matrix& rhs) const {
  if (cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::vconcat: column count mismatch");
  }
  Matrix out = *this;
  out.data_.insert(out.data_.end(), rhs.data_.begin(), rhs.data_.end());
  out.rows_ += rhs.rows_;
  return out;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

double euclidean_distance(std::span<const double> a,
                          std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("squared_distance: size mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: size mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(std::span<const double> v) { return std::sqrt(dot(v, v)); }

Matrix pairwise_squared_distances(const Matrix& points) {
  Matrix d(points.rows(), points.rows(), 0.0);
  // Task i writes (i,j) and (j,i) for j > i only, so no element is touched
  // by two tasks and every element's value is independent of scheduling.
  par::parallel_for(points.rows(), [&](std::size_t i) {
    for (std::size_t j = i + 1; j < points.rows(); ++j) {
      const double squared = squared_distance(points.row(i), points.row(j));
      d(i, j) = squared;
      d(j, i) = squared;
    }
  });
  return d;
}

Matrix pairwise_distances(const Matrix& points) {
  Matrix d = pairwise_squared_distances(points);
  for (double& v : d.data()) v = std::sqrt(v);
  return d;
}

}  // namespace perspector::la
