"""Group systems on a window: one-sided subgroups, the controllability
index, granules, the generator basis, and both encoders.

Run:  python3 demos/02_group_systems.py
"""

from groupsystems import (
    all_tensors,
    alphabet_matrix,
    build_system,
    controllability_index,
    cyclic_group,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
    extract_basis,
    fold_time_domain,
    parse_system,
    spectral_granule,
    tensor_from_items,
    time_granule,
)

# -- two running systems ---------------------------------------------------------

# R2: the binary repetition pair {00, 11}
z2 = cyclic_group(2)
r2 = build_system((0, 1), [z2, z2], [(1, 1)], name="R2")
print("R2 members:", r2.sequences)

# C2: the memory-one rule x -> (x, x + x_prev) unrolled over [0, 3]
c2 = parse_system("system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n")
print("C2 has", len(c2), "members; alphabet orders:",
      [g.order for g in c2.alphabets])

# -- controllability ---------------------------------------------------------------

print("\ncontrollability: R2 ->", controllability_index(r2),
      " C2 ->", controllability_index(c2))

# -- granules ----------------------------------------------------------------------

# the time-domain granule is trivial outside 0 <= m <= ell
for m in (-1, 0, 1, 2):
    lam = time_granule(c2, 1, m, ell=1)
    print(f"time granule at (i=1, m={m}) has order {lam.quotient.order}")
print("finite-extent granule at (0,1):",
      spectral_granule(c2, 0, 1).quotient.order)

# -- the generator basis -------------------------------------------------------------

basis = extract_basis(c2)
print("\nbasis transversal sizes per slot:")
for slot in basis.slots:
    print(f"   (k={slot[0]}, t={slot[1]}): {basis.label_count(slot)}")
gen = basis.transversal((1, 1))[1]
print("the span-2 generator starting at t=1:", gen)

# -- encoders and the tensor bijection ------------------------------------------------

r = tensor_from_items(basis, {(1, 0): 1, (1, 2): 1})
seq = encode_time_domain(basis, r)
print("\nencode {(1,0), (1,2)} ->", seq)
print("spectral encoder agrees?", encode_spectral_domain(basis, r) == seq)
back = decode_to_tensor(basis, seq)
print("decoding returns the same tensor?", back == r)

# a label tensor is a tuple of labels in slot order
images = {encode_time_domain(basis, rr)
          for rr in all_tensors(map(basis.label_count, basis.slots))}
print("encoding all tensors covers every member?",
      images == set(c2.sequences))

# -- the per-letter triangular fold ----------------------------------------------------

m = alphabet_matrix(basis, r, 2)
print("\nalphabet matrix at t=2:", m)
print("folding it reproduces the letter:",
      fold_time_domain(basis, m, 2) == c2.letter(seq, 2))
