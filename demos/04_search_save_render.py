"""Search, serialize, reload, verify, draw.

The exhaustive search is the ground truth the rest of the library is
judged against.  Here it finds a 17 x 17 tiling by squares 2, 3, 7,
the tiling round-trips through the interchange format, and both
renderers draw it.
"""

import tempfile
from pathlib import Path

from frobtile import (
    BoxShape,
    Brick,
    RenderOptions,
    exact_cover_search,
    load_tiling,
    render_ascii,
    render_svg,
    save_tiling,
    verify_full,
)

bricks = (Brick((7, 7)), Brick((3, 3)), Brick((2, 2)))
result = exact_cover_search(BoxShape((17, 17)), bricks)
print("search:", result)

out = Path(tempfile.mkdtemp(prefix="frobtile-demo-"))
tiling_path = out / "square17.json"
save_tiling(result.tiling, tiling_path)
print("saved", tiling_path)

reloaded = load_tiling(tiling_path)
assert reloaded == result.tiling
print("reloaded:", verify_full(reloaded))

print(render_ascii(reloaded))

svg_path = out / "square17.svg"
svg_path.write_text(render_svg(reloaded, RenderOptions(cell_size=12)))
print("wrote", svg_path)

# impossibility is a search outcome too, not a timeout: the 11 x 11
# square has no tiling by these bricks and the search proves it
print("11 x 11:", exact_cover_search(BoxShape((11, 11)), bricks))
