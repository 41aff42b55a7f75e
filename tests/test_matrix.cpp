#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace perspector::la {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstruction) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerListConstruction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, FromRowsValidatesSize) {
  EXPECT_THROW(Matrix::from_rows(2, 2, {1.0, 2.0, 3.0}),
               std::invalid_argument);
  Matrix m = Matrix::from_rows(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, FromRowVectors) {
  Matrix m = Matrix::from_row_vectors({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, Identity) {
  Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 2, 0.0);
  auto row = m.row(1);
  row[0] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, RowColCopy) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.row_copy(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(m.col_copy(1), (std::vector<double>{2.0, 4.0}));
}

TEST(Matrix, SetRowAndColValidate) {
  Matrix m(2, 2);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(m.set_row(0, wrong), std::invalid_argument);
  EXPECT_THROW(m.set_col(0, wrong), std::invalid_argument);
  const std::vector<double> row{5.0, 6.0};
  m.set_row(0, row);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
  const std::vector<double> col{8.0, 9.0};
  m.set_col(1, col);
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(Matrix, AppendRowGrowsAndDefinesShape) {
  Matrix m;
  const std::vector<double> r1{1.0, 2.0, 3.0};
  m.append_row(r1);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(m.append_row(bad), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix p = a.multiply(b);
  EXPECT_DOUBLE_EQ(p(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(Matrix, MultiplyByIdentityIsNoop) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a.multiply(Matrix::identity(2)), a);
  EXPECT_EQ(Matrix::identity(2).multiply(a), a);
}

TEST(Matrix, SelectRowsAndCols) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const std::vector<std::size_t> rows{2, 0};
  Matrix r = m.select_rows(rows);
  EXPECT_EQ(r.rows(), 2u);
  EXPECT_DOUBLE_EQ(r(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(r(1, 2), 3.0);

  const std::vector<std::size_t> cols{1};
  Matrix c = m.select_cols(cols);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(2, 0), 8.0);

  const std::vector<std::size_t> bad{3};
  EXPECT_THROW(m.select_rows(bad), std::out_of_range);
  EXPECT_THROW(m.select_cols(bad), std::out_of_range);
}

TEST(Matrix, Concatenation) {
  Matrix a{{1.0}, {2.0}};
  Matrix b{{3.0}, {4.0}};
  Matrix h = a.hconcat(b);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_DOUBLE_EQ(h(1, 1), 4.0);
  Matrix v = a.vconcat(b);
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_DOUBLE_EQ(v(3, 0), 4.0);

  Matrix wide(1, 2);
  EXPECT_THROW(a.hconcat(wide), std::invalid_argument);
  EXPECT_THROW(a.vconcat(wide), std::invalid_argument);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
  Matrix c(2, 1);
  EXPECT_THROW(a.max_abs_diff(c), std::invalid_argument);
}

TEST(VectorOps, EuclideanDistance) {
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  const std::vector<double> c{1.0};
  EXPECT_THROW(euclidean_distance(a, c), std::invalid_argument);
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(VectorOps, PairwiseDistancesSymmetricZeroDiagonal) {
  Matrix points{{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  Matrix d = pairwise_distances(points);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 10.0);
}

TEST(Matrix, PairwiseSquaredDistancesAreBitwiseSymmetricOnTiesAndDuplicates) {
  // Rows 0/3 and 2/5 are duplicates; the levels are inexact binary
  // fractions, so a-b rounds and equal distances arise between
  // different pairs (ties).
  const Matrix points{{0.1, 0.7, 0.3},  {0.3, 0.1, 0.7}, {0.7, 0.3, 0.1},
                      {0.1, 0.7, 0.3},  {0.7, 0.1, 0.3}, {0.7, 0.3, 0.1},
                      {1e-9, 0.3, 0.7}, {0.3, 0.3, 0.3}};
  const Matrix squared = pairwise_squared_distances(points);
  const Matrix dist = pairwise_distances(points);
  ASSERT_EQ(squared.rows(), points.rows());
  ASSERT_EQ(squared.cols(), points.rows());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < points.rows(); ++i) {
    EXPECT_EQ(bits(squared(i, i)), bits(0.0)) << i;
    for (std::size_t j = 0; j < points.rows(); ++j) {
      EXPECT_EQ(bits(squared(i, j)), bits(squared(j, i))) << i << "," << j;
      EXPECT_EQ(bits(squared(i, j)),
                bits(squared_distance(points.row(j), points.row(i))))
          << i << "," << j;
      EXPECT_EQ(bits(std::sqrt(squared(i, j))), bits(dist(i, j)))
          << i << "," << j;
    }
  }
  EXPECT_EQ(bits(squared(0, 3)), bits(0.0));
  EXPECT_EQ(bits(squared(2, 5)), bits(0.0));
}

TEST(Matrix, ToStringRendersRows) {
  Matrix m{{1.0, 2.0}};
  const std::string s = m.to_string(1);
  EXPECT_NE(s.find("1.0"), std::string::npos);
  EXPECT_NE(s.find("2.0"), std::string::npos);
}

}  // namespace
}  // namespace perspector::la
