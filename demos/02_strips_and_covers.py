"""Weak strips, marked strong covers, and their partition-side shadows.

Starting from w = s2 s0 at rank 3, lists the weak strips of size 2, the
four strong strips of size 2 (which carry the multiplicities 2, 1, 1 of a
degree-2 product expansion), and redraws one cover as ribbons on cores.
"""

from collections import Counter

from affine_insertion import (
    core_of,
    format_partition,
    format_window,
    from_reduced_word,
    marked_covers_above,
    strong_strips_from,
    weak_strips_from,
)
from affine_insertion.oracles import strong_cover_cores

w = from_reduced_word(3, [2, 0])
print("w =", format_window(w), "  core:", format_partition(core_of(w)))

print("\nweak strips of size 2 (residue set -> outside):")
for s in weak_strips_from(w, 2):
    print("  ", sorted(s.residues), "->", format_window(s.outside))

print("\nmarked strong covers above w:")
for c in marked_covers_above(w, 0):
    print("  ", c)

print("\nstrong strips of size 2 and the outside multiplicities:")
strips = strong_strips_from(w, 2, 0)
for s in strips:
    print("  ", s.render())
print("  multiplicities:", dict(Counter(format_window(s.outside) for s in strips)))

mu = (11, 8, 5, 5, 3, 3, 1, 1, 1)
lam = (11, 8, 7, 6, 5, 4, 3, 2, 1)
desc = strong_cover_cores(mu, lam, 4)
print("\na rank-4 cover on cores:", format_partition(mu), "->", format_partition(lam))
print("  reflection (r, s) =", (desc.r, desc.s))
print("  components:", desc.n_components, "ribbons of size", desc.ribbon_size)
print("  legal marks:", desc.mark_options)
