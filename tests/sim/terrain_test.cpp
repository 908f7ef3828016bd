// Terrain generation, spatial index and line-of-sight (the Fig. 2 core).
#include <gtest/gtest.h>

#include "sim/terrain.h"

namespace agrarsec::sim {
namespace {

Terrain flat_with(std::vector<Obstacle> obstacles) {
  return Terrain{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
}

Obstacle boulder(core::Vec2 at, double radius, double height) {
  Obstacle o;
  o.kind = ObstacleKind::kBoulder;
  o.footprint = {at, radius};
  o.height_m = height;
  return o;
}

TEST(Terrain, GenerateRespectsDensity) {
  ForestConfig config;
  config.bounds = {{0, 0}, {500, 500}};  // 25 ha
  config.trees_per_hectare = 400;
  core::Rng rng{42};
  const Terrain t = Terrain::generate(config, rng);
  // trees + boulders + brush ~ (400+8+40)*25 = 11200, Poisson-ish.
  EXPECT_GT(t.obstacle_count(), 9000u);
  EXPECT_LT(t.obstacle_count(), 14000u);
}

TEST(Terrain, GenerateDeterministicPerSeed) {
  ForestConfig config;
  core::Rng r1{7}, r2{7};
  const Terrain t1 = Terrain::generate(config, r1);
  const Terrain t2 = Terrain::generate(config, r2);
  EXPECT_EQ(t1.obstacle_count(), t2.obstacle_count());
}

TEST(Terrain, FlatGroundIsZero) {
  const Terrain t = flat_with({});
  EXPECT_DOUBLE_EQ(t.ground_height({50, 50}), 0.0);
}

TEST(Terrain, HillRaisesGround) {
  Terrain t{core::Aabb{{0, 0}, {200, 200}}, {}, {Hill{{100, 100}, 8.0, 30.0}}};
  EXPECT_NEAR(t.ground_height({100, 100}), 8.0, 1e-9);
  EXPECT_GT(t.ground_height({120, 100}), 0.5);
  EXPECT_LT(t.ground_height({199, 199}), 0.1);
}

TEST(Terrain, ClearLineOfSightOnFlatGround) {
  const Terrain t = flat_with({});
  EXPECT_TRUE(t.line_of_sight({0, 0}, 2.0, {100, 0}, 1.7));
}

TEST(Terrain, BoulderBlocksGroundLevelView) {
  const Terrain t = flat_with({boulder({50, 0}, 2.0, 3.0)});
  // Sensor at 2.6 m, person torso at ~1.2 m: ray passes below 3 m boulder.
  EXPECT_FALSE(t.line_of_sight({0, 0}, 2.6, {100, 0}, 1.2));
}

TEST(Terrain, ElevatedViewpointClearsBoulder) {
  const Terrain t = flat_with({boulder({50, 0}, 2.0, 3.0)});
  // Drone at 40 m sees over the 3 m boulder.
  EXPECT_TRUE(t.line_of_sight({0, 0}, 40.0, {100, 0}, 1.2));
}

TEST(Terrain, ObstacleBesideRayDoesNotBlock) {
  const Terrain t = flat_with({boulder({50, 10}, 2.0, 3.0)});
  EXPECT_TRUE(t.line_of_sight({0, 0}, 2.6, {100, 0}, 1.2));
}

TEST(Terrain, TallObstacleBlocksEvenSteepRays) {
  // A 16 m "tree wall" halfway: even a 12 m viewpoint is blocked toward a
  // ground target when the crossing height is below the tree top.
  const Terrain t = flat_with({boulder({50, 0}, 1.0, 16.0)});
  EXPECT_FALSE(t.line_of_sight({0, 0}, 12.0, {100, 0}, 1.2));
  // From 100 m up it clears.
  EXPECT_TRUE(t.line_of_sight({0, 0}, 100.0, {100, 0}, 1.2));
}

TEST(Terrain, ObstacleNearEndpointIgnored) {
  // An obstacle hugging the observer must not self-occlude.
  const Terrain t = flat_with({boulder({0.3, 0}, 0.5, 5.0)});
  EXPECT_TRUE(t.line_of_sight({0, 0}, 2.6, {100, 0}, 1.2));
}

TEST(Terrain, HillBlocksViewAcrossCrest) {
  Terrain t{core::Aabb{{0, 0}, {200, 200}}, {}, {Hill{{100, 0}, 10.0, 20.0}}};
  // Both endpoints low, 10 m crest between them.
  EXPECT_FALSE(t.line_of_sight({20, 0}, 2.0, {180, 0}, 1.7));
  // High drone clears the crest.
  EXPECT_TRUE(t.line_of_sight({20, 0}, 50.0, {180, 0}, 1.7));
}

TEST(Terrain, LineOfSightSymmetricOnFlat) {
  const Terrain t = flat_with({boulder({50, 0}, 2.0, 3.0)});
  EXPECT_EQ(t.line_of_sight({0, 0}, 2.0, {100, 0}, 2.0),
            t.line_of_sight({100, 0}, 2.0, {0, 0}, 2.0));
}

TEST(Terrain, ObstaclesNearSegmentFindsStraddlers) {
  // Obstacle centered off the segment but radius reaching it.
  const Terrain t = flat_with({boulder({50, 3}, 4.0, 3.0)});
  const auto found = t.obstacles_near_segment({0, 0}, {100, 0});
  EXPECT_EQ(found.size(), 1u);
  const auto none = t.obstacles_near_segment({0, 20}, {100, 20});
  EXPECT_TRUE(none.empty());
}

TEST(Terrain, ZeroLengthSightIsClear) {
  const Terrain t = flat_with({boulder({50, 0}, 2.0, 3.0)});
  EXPECT_TRUE(t.line_of_sight({50, 0}, 1.0, {50, 0}, 1.0));
}

}  // namespace
}  // namespace agrarsec::sim
