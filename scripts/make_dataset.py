#!/usr/bin/env python3
"""Generate a synthetic dataset tree for the CLI pipeline.

Writes one subdirectory of PPM images per procedural style family plus a
content/ directory, i.e. the layout `pretrain`, `train-bank` and
`bench-attn` expect.
"""

import argparse
from pathlib import Path

from artbank.data_io import (CONTENT_KINDS, default_style_specs,
                             gen_content_image, gen_style_collection,
                             write_ppm)
from artbank.seeding import derive_seed


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="dataset root to create")
    ap.add_argument("--per-family", type=int, default=64)
    ap.add_argument("--n-content", type=int, default=24)
    ap.add_argument("--size", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    for name, spec in sorted(default_style_specs().items()):
        sub = root / name
        sub.mkdir(exist_ok=True)
        images = gen_style_collection(spec, args.per_family, args.size,
                                      seed=derive_seed(args.seed, f"family:{name}"))
        for i, img in enumerate(images):
            write_ppm(img, sub / f"img_{i:04d}.ppm")
        print(f"{sub}: {len(images)} images")

    content = root / "content"
    content.mkdir(exist_ok=True)
    for i in range(args.n_content):
        img = gen_content_image(CONTENT_KINDS[i % len(CONTENT_KINDS)], args.size,
                                seed=derive_seed(args.seed, f"content:{i}"))
        write_ppm(img, content / f"content_{i:04d}.ppm")
    print(f"{content}: {args.n_content} images")


if __name__ == "__main__":
    main()
