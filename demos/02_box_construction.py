"""From a side bound to an explicit tiling.

A system of n+1 bricks in n dimensions is admissible when, along every
axis, the products-over-one of each sub-collection's sides are coprime.
For admissible systems there is a computable threshold: every box all
of whose sides exceed the largest relevant Frobenius number can be
tiled, and the constructor produces the tiling by induction on
dimension.
"""

import time

from frobtile import (
    BoxShape,
    Brick,
    BrickSystem,
    check_admissible,
    construct_box,
    gn_bound,
    verify_full,
    verify_sampled,
)

# three squares in the plane
squares = BrickSystem((Brick((2, 2)), Brick((3, 3)), Brick((5, 5))))
print("admissible:", check_admissible(squares))
bound = gn_bound(squares)
print("side bound:", bound, "(every square of side >", bound, "tiles)")

t = construct_box(BoxShape((bound + 1, bound + 1)), squares)
print(f"{t.box.sides}: {len(t.placements)} placements,", verify_full(t))

# the same machinery one dimension up: four prime cubes
cubes = BrickSystem(
    (Brick((2, 2, 2)), Brick((3, 3, 3)), Brick((5, 5, 5)), Brick((7, 7, 7)))
)
bound3 = gn_bound(cubes)
print("cube system bound:", bound3)

start = time.monotonic()
big = construct_box(BoxShape((bound3 + 1,) * 3), cubes)
built = time.monotonic() - start
print(
    f"{big.box.sides}: {len(big.placements)} placements"
    f" in {built:.2f}s, volume exact:",
    big.placement_volume() == big.box.volume,
)

# the exact check is a raster linear in cells plus placements, so it
# handles hundreds of thousands of placements; sampled verification
# probes random unit cells instead
print(verify_full(big))
print(verify_sampled(big, samples=20_000, seed=1))
