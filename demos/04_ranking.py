"""Ranking fixed-weight Lyndon words, and why the generator cares.

The context-free successor pins the joined weight-m period-h cycles to the
lexicographically largest Lyndon words of that weight.  Ranks are counted,
never listed, so the rule unranks one threshold word tau and decides each
join by a single comparison; no joined-cycle counter has to be carried
around.
"""

from cutdown import (
    count_lyndon,
    enumerate_lyndon,
    least_rotation,
    rank_lyndon,
    rotate,
    unrank_lyndon,
)

listing = enumerate_lyndon(8, 3, 2)
print("Lyndon words of length 8, weight 3, in lexicographic order:")
for i, word in enumerate(listing, start=1):
    print(f"  rank {i}: {''.join(map(str, word))}")

word = (1, 0, 0, 1, 0, 1, 0, 0)
print(f"\nrank of {''.join(map(str, word))} "
      f"(via its smallest rotation): {rank_lyndon(word)}")

print("\nranks are rotation-invariant:")
for j in (1, 3, 5):
    r = rotate(word, j)
    print(f"  {''.join(map(str, r))} -> {rank_lyndon(r)}")

t = 2
total = count_lyndon(8, 3, 2)
tau = unrank_lyndon(8, 3, total - t + 1)
print(f"\nto keep the t={t} largest, unrank tau = word {total - t + 1} "
      f"of {total}: {''.join(map(str, tau))}")
largest = [w for w in listing if least_rotation(w) >= tau]
print(f"the entries with least_rotation(word) >= tau "
      f"(the ones a length target needing t={t} joined cycles keeps):")
for w in largest:
    print(f"  {''.join(map(str, w))}")

big = tuple(map(int, "0010111010011101" * 3 + "0110100111010110"))
print(f"\nno listing is built, so 64-bit words rank at once: "
      f"rank {rank_lyndon(big)} of {count_lyndon(64, sum(big), 2)}")
