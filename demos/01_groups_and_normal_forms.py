"""Free products, normal forms and the two metrics.

Run:  python demos/01_groups_and_normal_forms.py
"""

from freewalk import FactorSpec, free_group, free_product

# The free group F2 presented as Z * Z
F2 = free_group(2)
a, b = F2.gen("a"), F2.gen("b")

g = F2.element([(1, 1), (2, 1), (2, -1), (1, 3)])  # a b b^-1 a^3
print("a b b^-1 a^3 normalizes to", F2.render(g))

word = F2.multiply(F2.multiply(a, b), F2.gen("a", -2))
rel, wl = F2.lengths(word)
print(f"{F2.render(word)}: relative length {rel}, word length {wl}")

# A mixed product: Z^2 * Z/3
G = free_product(FactorSpec((0, 0)), FactorSpec((3,)))
h = G.parse("1:(3,-4)|2:(1)")
print(f"{G.render(h)}: lengths {G.lengths(h)}")

# relative geodesics are syllable prefixes; their lifts walk the factors
# one generator at a time, flagging the transition points
target = F2.element([(1, 2), (2, -1)])
path = F2.relative_geodesic(F2.identity, target)
print("relative geodesic to", F2.render(target), "visits",
      [F2.render(v) for v in path.vertices])
lift = F2.lift_path(path)
print("its lift:", [F2.render(v) for v in lift.vertices])
print("flags:   ", list(lift.flags))
print("components:", F2.components(lift))

# ball enumeration drives everything downstream
ball = list(F2.enumerate_ball(2, 2))
print(f"|ball(2 syllables, letters up to 2)| = {len(ball)}")
print("first ten:", [F2.render(x) for x in ball[:10]])
