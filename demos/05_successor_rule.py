"""The context-free successor: next symbol from the current window alone.

The counter rule must start at a fixed window and carry a count of joined
cycles.  The successor rule needs no context: drop into the cycle
at any window and step; every start yields the same cyclic sequence.
"""

from cutdown import cut_down_successor, cut_set, derive_params

n, L = 6, 46
params = derive_params(n, 2, L)
cuts = cut_set(params.s, n)


def run(start):
    alpha, out = start, []
    for _ in range(L):
        out.append(alpha[0])
        alpha = alpha[1:] + (cut_down_successor(alpha, params, cuts),)
    return "".join(map(str, out))


base = run((0, 0, 0, 0, 0, 1))
print(f"from 000001: {base}")

other = run((1, 1, 0, 0, 1, 0))
print(f"from 110010: {other}")

print("same cyclic sequence:", other in base + base)

window = (0, 0, 1, 1, 1, 0)
print(f"\npure function of the window: successor of "
      f"{''.join(map(str, window))} is {cut_down_successor(window, params, cuts)}"
      f" (again: {cut_down_successor(window, params, cuts)})")
