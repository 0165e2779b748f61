"""Embeddability of the two antipodal planes in Desarguesian planes.

The order-2 plane embeds in PG(2,q) iff q = 3^h or 3 | q-1; the order-3
plane iff q = 2^h with h even.  The search pins four safe points to the
standard frame, forces line images from point images, and reports
exhausted-none only after a full traversal.  A subplane of order m is an
embedding of PG(2,m), taken as a partial linear space, so the same search
finds subplanes.

Run:  python3 demos/06_embeddings.py   (under a second)
"""

from planecode.antipodal import PartialLinearSpace, cyclic_antipodal, validate_antipodal
from planecode.construct import antipodal_diff
from planecode.field import field_new
from planecode.geometry import pg2
from planecode.search import embed_search, slope_certificate

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}

mk = cyclic_antipodal(2)
ap3 = cyclic_antipodal(3)

print("order-2 (Mobius-Kantor), expected: yes iff q = 3^h or 3 | q-1")
for q in (3, 4, 5, 7, 8, 9, 11, 13):
    plane = pg2(field_new(*FIELDS[q]))
    out = embed_search(mk, plane)
    print(f"  q={q:>2}: {out.status:15s} ({out.stats.nodes} nodes)")

print("order-3, expected: yes iff q = 2^h, h even")
for q in (4, 5, 7, 8, 9, 16):
    plane = pg2(field_new(*FIELDS[q]))
    out = embed_search(ap3, plane)
    print(f"  q={q:>2}: {out.status:15s} ({out.stats.nodes} nodes)")

# slope products over a good triangle multiply to -1 (Menelaos x Ceva)
plane4 = pg2(field_new(2, 2))
emb = embed_search(ap3, plane4).embeddings[0]
cert = slope_certificate(validate_antipodal(ap3), plane4, emb)
print(f"\nslope certificate in PG(2,4): T1*T2*T3 = {cert.product} "
      f"(-1 = {cert.minus_one}), holds: {cert.holds}")

# open experiment: difference of two disjoint MK configurations in PG(2,9)
plane9 = pg2(field_new(3, 2))
e1 = embed_search(mk, plane9).embeddings[0]
e2 = embed_search(mk, plane9, exclude=frozenset(e1.point_map)).embeddings[0]
w, dual = antipodal_diff(plane9, (mk, e1), (mk, e2))
print(f"\ndisjoint MK pair in PG(2,9): weight {w.weight} word, dual={dual}")
print("(whether any disjoint pair gives a dual word is open; this run reports, "
      "it does not assert)")

# subplanes through the same engine: PG(2,m) as a partial linear space
print()
for m, q in ((2, 9), (4, 16)):
    sub = PartialLinearSpace(m * m + m + 1, pg2(field_new(*FIELDS[m])).lines)
    out = embed_search(sub, pg2(field_new(*FIELDS[q])))
    print(f"PG(2,{m}) as a subplane of PG(2,{q}): {out.status} ({out.stats.nodes} nodes)")
