// Field arithmetic mod 2^255 - 19: the dedicated squaring against the
// general multiplication.
#include <gtest/gtest.h>

#include <cstring>

#include "core/bytes.h"
#include "crypto/field25519.h"
#include "crypto/random.h"

namespace agrarsec::crypto {
namespace {

using detail::Fe;

constexpr std::uint64_t kBound = (std::uint64_t{1} << 52) - 1;

void expect_square_matches_product(const Fe& f) {
  Fe square;
  Fe product;
  detail::fe_sq(square, f);
  detail::fe_mul(product, f, f);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(square.v[i], product.v[i])
        << "limb " << i << " of f = {" << f.v[0] << ", " << f.v[1] << ", " << f.v[2] << ", "
        << f.v[3] << ", " << f.v[4] << "}";
  }
}

// fe_sq folds fe_mul(f, f)'s symmetric products into 15; the column sums
// are exact, so every limb must match, for random limbs below the 2^52
// bound the callers keep and for limbs at that bound.
TEST(Field25519, SquareMatchesSelfProductLimbForLimb) {
  Drbg drbg{20261019, "field25519-square"};
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = drbg.generate(40);
    Fe f;
    for (int j = 0; j < 5; ++j) f.v[j] = core::load_le64(bytes.data() + 8 * j) & kBound;
    expect_square_matches_product(f);
  }
  // Every mix of limbs at 0, 2^51 - 1, 2^51 and the bound.
  constexpr std::uint64_t kEdges[4] = {0, (std::uint64_t{1} << 51) - 1,
                                       std::uint64_t{1} << 51, kBound};
  for (int mix = 0; mix < 4 * 4 * 4 * 4 * 4; ++mix) {
    Fe f;
    for (int j = 0, m = mix; j < 5; ++j, m /= 4) f.v[j] = kEdges[m % 4];
    expect_square_matches_product(f);
  }
}

}  // namespace
}  // namespace agrarsec::crypto
