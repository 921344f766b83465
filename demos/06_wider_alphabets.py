"""Cut-down sequences over alphabets larger than binary.

With k=4 the symbols can stand for DNA bases: a cyclic probe of length L
where every length-n substring is unique, for any L up to 4^n.
"""

from cutdown import SequenceSpec, generate, verify

n, k, L = 4, 4, 200
seq = list(generate(SequenceSpec(n=n, k=k, L=L)))
bases = "ACGT"
dna = "".join(bases[s] for s in seq)
print(f"{L}-base cyclic probe, every {n}-mer unique:")
for i in range(0, L, 50):
    print(f"  {dna[i:i + 50]}")
print("valid:", verify(seq, n, k, expected_len=L).ok)

print("\nevery length in (4^3, 4^4] works:")
for L in (65, 100, 137, 256):
    body = list(generate(SequenceSpec(n=4, k=4, L=L)))
    print(f"  L={L:3d}: ok={verify(body, 4, 4, expected_len=L).ok}")

print("\nsix symbols, n=3, length 171:")
body = list(generate(SequenceSpec(n=3, k=6, L=171)))
print("  ok:", verify(body, 3, 6, expected_len=171).ok)
print("  head:", ",".join(map(str, body[:30])), "...")

print("\nthe context-free rule, k=4, n=4, length 200:")
body = list(generate(SequenceSpec(n=4, k=4, L=200, mode="successor")))
print("  ok:", verify(body, 4, 4, expected_len=200).ok)
start = tuple(body[50:54])
again = list(generate(SequenceSpec(n=4, k=4, L=200, mode="successor",
                                   start=start)))
print(f"  from window {''.join(map(str, start))}: the same cycle, "
      f"{again == body[50:] + body[:50]}")
