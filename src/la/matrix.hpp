// Dense row-major matrix and small-vector helpers used throughout Perspector.
//
// The library deliberately avoids external linear-algebra dependencies: the
// matrices involved are tiny (tens of workloads x tens of counters), so a
// straightforward dense implementation is both sufficient and easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace perspector::la {

/// Dense row-major matrix of doubles.
///
/// Rows conventionally index workloads and columns index PMU counters or
/// principal components. All shape mismatches throw std::invalid_argument;
/// out-of-range element access throws std::out_of_range.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a matrix from a flat row-major buffer of size rows*cols.
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::vector<double> data);

  /// Builds a matrix whose rows are the given vectors (all equal length).
  static Matrix from_row_vectors(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n x n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Unchecked element access (hot paths).
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// View of row `r` as a contiguous span.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// Copies of a row / column.
  std::vector<double> row_copy(std::size_t r) const;
  std::vector<double> col_copy(std::size_t c) const;

  /// Replaces row `r` with `values` (size must equal cols()).
  void set_row(std::size_t r, std::span<const double> values);
  /// Replaces column `c` with `values` (size must equal rows()).
  void set_col(std::size_t c, std::span<const double> values);

  /// Appends a row (size must equal cols(), unless the matrix is empty, in
  /// which case the row defines the column count).
  void append_row(std::span<const double> values);

  /// Pre-allocates storage for a `rows x cols` shape (a capacity hint for
  /// append_row loops whose final row count is only estimated; never
  /// changes the current contents or dimensions).
  void reserve(std::size_t rows, std::size_t cols) {
    data_.reserve(rows * cols);
  }

  Matrix transposed() const;

  /// Matrix product this * rhs; requires cols() == rhs.rows().
  Matrix multiply(const Matrix& rhs) const;

  /// Returns the sub-matrix formed by the given row indices (in order).
  Matrix select_rows(std::span<const std::size_t> indices) const;
  /// Returns the sub-matrix formed by the given column indices (in order).
  Matrix select_cols(std::span<const std::size_t> indices) const;

  /// Horizontal concatenation [this | rhs]; requires equal row counts.
  Matrix hconcat(const Matrix& rhs) const;
  /// Vertical concatenation [this ; rhs]; requires equal column counts.
  Matrix vconcat(const Matrix& rhs) const;

  /// Flat row-major data access.
  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  bool operator==(const Matrix& other) const = default;

  /// Max |a-b| over all elements; requires identical shapes.
  double max_abs_diff(const Matrix& other) const;

  /// Human-readable rendering (debugging / reports).
  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance between two equal-length vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length vectors.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean (L2) norm.
double norm(std::span<const double> v);

/// Pairwise squared Euclidean distance matrix of the rows of `points`:
/// entry (i,j) is squared_distance(row i, row j), bitwise symmetric with
/// a zero diagonal. Bitwise symmetric because fl(a-b) = -fl(b-a), so both
/// argument orders sum the same squares in the same order.
Matrix pairwise_squared_distances(const Matrix& points);

/// Pairwise Euclidean distance matrix of the rows of `points`: the
/// elementwise sqrt of pairwise_squared_distances, so each entry has the
/// bits of euclidean_distance (symmetric, zero diagonal).
Matrix pairwise_distances(const Matrix& points);

}  // namespace perspector::la
