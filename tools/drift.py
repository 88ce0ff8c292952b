"""Parameter drift between two output trees of tools/bytecheck.sh.

usage: python tools/drift.py OLD_OUT NEW_OUT

For each model.ckpt under OLD_OUT, prints the largest absolute difference
from the checkpoint at the same relative path under NEW_OUT, and the parameter
it is in. This is the drift a change that alters output bits states.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from msml.model import model_from_checkpoint  # noqa: E402


def main(old_out, new_out):
    old_out, new_out = Path(old_out), Path(new_out)
    for old in sorted(old_out.rglob("model.ckpt")):
        rel = old.relative_to(old_out)
        a, b = model_from_checkpoint(old), model_from_checkpoint(new_out / rel)
        if (a.kind, a.cfg) != (b.kind, b.cfg):
            print(f"{rel}: model blocks differ")
            continue
        drift = np.abs(a.slab.values - b.slab.values)
        worst = int(np.argmax(drift))
        print(f"{rel}: max |diff| {drift[worst]:.3e} in {a.slab.name_at(worst)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
