"""The free-group layer as a pure-Python letter loop: stack reduction of
substituted words, the Artin action composed letter by letter, and growth
iterated in the other order, a^p = compose(a^(p-1), a).

This is the test oracle for ``burau.freegroup``, whose words are letter
arrays reduced at block seams and whose growth iteration substitutes a^(p-1)
into the short images of a.  It works on tuples of signed generator indices
and shares no reduction or iteration code with the library; it only builds
the library's ``GrowthReport`` so that reports compare with ``==``.
"""

from __future__ import annotations

import numpy as np

from burau.freegroup import DEFAULT_LETTER_BUDGET, GrowthReport


def substitute(images, word) -> tuple:
    """Replace each letter of ``word`` by its image (inverted for a negative
    letter) and freely reduce with a stack.  Returns (letters, cancelled)."""
    out: list = []
    raw_length = 0
    for v in word:
        img = images[abs(v) - 1]
        seq = img if v > 0 else tuple(-u for u in reversed(img))
        raw_length += len(seq)
        for u in seq:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return tuple(out), len(out) != raw_length


def compose(first, then) -> tuple:
    """Images of ``first`` followed by ``then``, and whether any cancelled."""
    steps = [substitute(then, img) for img in first]
    return [letters for letters, _ in steps], any(c for _, c in steps)


def generator_images(k: int, rank: int) -> list:
    """Images under s_k (k > 0) or s_|k|^-1 (k < 0)."""
    images = [(g,) for g in range(1, rank + 1)]
    i = abs(k)
    if k > 0:
        images[i - 1], images[i] = (i, i + 1, -i), (i,)
    else:
        images[i - 1], images[i] = (i + 1,), (-(i + 1), i, i + 1)
    return images


def artin_images(strands: int, letters) -> list:
    """Images of x_1 .. x_n under the braid word, letters acting first to
    last."""
    images = [(g,) for g in range(1, strands + 1)]
    for v in letters:
        images, _ = compose(images, generator_images(v, strands))
    return images


def occurrence_rows(images) -> list:
    rank = len(images)
    rows = []
    for img in images:
        row = [0] * rank
        for v in img:
            row[abs(v) - 1] += 1
        rows.append(row)
    return rows


def growth_report(images, p_max: int,
                  budget: int = DEFAULT_LETTER_BUDGET) -> GrowthReport:
    """``growth_rate_estimate`` of the automorphism with these images:
    a^p = compose(a^(p-1), a), flagged when that substitution cancels, and
    stopped before power p when (total letters of a^(p-1)) * (longest image
    of a) exceeds the budget."""
    base = occurrence_rows(images)
    powers = [1]
    norms = [max((sum(row) for row in base), default=0)]
    flags = [False]
    budget_exceeded = False
    max_image = max((len(img) for img in images), default=1)
    current = images
    witness_square_ok = False
    for p in range(2, p_max + 1):
        if sum(len(img) for img in current) * max(1, max_image) > budget:
            budget_exceeded = True
            break
        current, cancelled = compose(current, images)
        powers.append(p)
        flags.append(cancelled)
        rows = occurrence_rows(current)
        norms.append(max((sum(row) for row in rows), default=0))
        if p == 2:
            square = [[sum(base[i][k] * base[k][j] for k in range(len(base)))
                       for j in range(len(base))] for i in range(len(base))]
            witness_square_ok = rows == square
    certified = len(powers) >= 2 and not any(flags[:2]) and witness_square_ok
    exact = None
    if certified:
        exact = (float(np.abs(np.linalg.eigvals(np.array(base, dtype=float))).max())
                 if base else 0.0)
    return GrowthReport(
        powers=tuple(powers),
        norms=tuple(norms),
        estimates=tuple(n ** (1.0 / p) for p, n in zip(powers, norms)),
        cancellation=tuple(flags),
        budget_exceeded=budget_exceeded,
        certified_no_cancellation=certified,
        exact_growth_rate=exact,
    )
