"""Which squares do squares of sides 2, 3 and p fill?

For p = 5 and p = 7 the answer is exact: every side works except 1
and 7, respectively 1, 5 and 11.  The decider reproduces this in
closed form, without any search.  The oracle's scan agrees up to side
30: dissection (guillotine cuts and pinwheels over two-brick pieces)
settles every tileable side, and complete exact-cover search proves
each side it leaves impossible.
"""

from frobtile import Brick, render_ascii, threshold_scan, tile_square_235p
from frobtile.planar import Dissection

for p in (5, 7):
    bricks = (Brick((2, 2)), Brick((3, 3)), Brick((p, p)))
    dissection = Dissection(bricks)
    settled = [a for a in range(1, 31) if dissection.settled((a, a))]
    searched = [a for a in range(1, 31) if a not in settled]
    print(f"p = {p}: dissection settles sides {settled}")
    print(f"p = {p}: the search decides sides {searched}")
    misses = threshold_scan(bricks, 30)
    print(f"p = {p}: oracle misses up to 30 are {misses}")

    decided_misses = [a for a in range(1, 61) if not tile_square_235p(a, p).tileable]
    print(f"p = {p}: decider misses up to 60 are {decided_misses}")

# each positive verdict carries a witness; the hardest small case for
# p = 5 is the 13 x 13 square, which no divisibility argument settles
decision = tile_square_235p(13, 5)
print("13 x 13 from {2,3,5}:", decision)
print(render_ascii(decision.witness))

# the same question for another p: the decider composes, builds a
# pinwheel or applies the weight argument, and names which it did
for a in (25, 29, 31):
    print(f"{a} x {a} from {{2,3,11}}:", tile_square_235p(a, 11))
