#!/usr/bin/env python3
"""Structure preservation and style acquisition on the desk rig.

Builds the desk rig (``artbank.desk``), stylizes its content images with the
full entry both ways at equal strength (predicted-noise vs random-noise
initialization) and with the drop-text entry, and reports mean SSIM against
the content plus mean Gram-feature style scores. At the defaults these are
the means acceptance criteria 08 (ssim) and 09 (style) compare.
"""

import argparse

import numpy as np

from artbank import desk
from artbank.inversion import stylize
from artbank.metrics import gram_style_score, signature_of, ssim


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-content", type=int, default=20)
    ap.add_argument("--entry-steps", type=int, default=desk.ENTRY_STEPS)
    ap.add_argument("--pretrain-steps", type=int, default=desk.PRETRAIN_STEPS)
    ap.add_argument("--seed", type=int, default=desk.ROOT_SEED)
    args = ap.parse_args(argv)

    rig = desk.build(args.seed, args.pretrain_steps, args.entry_steps)
    signature = signature_of(rig.style_collection)

    def styled(style_id, content, cfg, use_inversion=True):
        return stylize(rig.backbone, rig.sched, rig.bank, style_id, content,
                       cfg, use_inversion=use_inversion)

    rows = []
    for content, cfg in desk.contents(args.n_content):
        inv = styled(rig.entry_full.style_id, content, cfg)
        rnd = styled(rig.entry_full.style_id, content, cfg, use_inversion=False)
        droptext = styled(rig.entry_droptext.style_id, content, cfg)
        rows.append({
            "ssim_inversion": ssim(content, inv),
            "ssim_random": ssim(content, rnd),
            "style_content": gram_style_score(content, signature).value,
            "style_inversion": gram_style_score(inv, signature).value,
            "style_droptext": gram_style_score(droptext, signature).value,
            "style_random": gram_style_score(rnd, signature).value,
        })

    for key in rows[0]:
        print(f"mean {key}: {float(np.mean([r[key] for r in rows])):.4f}")


if __name__ == "__main__":
    main()
