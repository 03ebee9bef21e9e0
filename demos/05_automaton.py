"""The relative-geodesic automaton and its canonical refinement.

Run:  python demos/05_automaton.py   (about 1.5 seconds)
"""

from freewalk import FactorSpec, free_group, free_product
from freewalk.automaton import (
    canonical_automaton,
    cone_types,
    export_dot,
    reduced_automaton,
    verify_structure,
)

F2 = free_group(2)

types = cone_types(F2, m=4, B=3)
print(f"{len(types)} cone types on Z * Z:")
for t in types:
    print(f"  last factor {t.last_factor or 'none'}: representative "
          f"{F2.render(t.representative)}, extends by factors "
          f"{t.extension_factors}")

g0 = reduced_automaton(F2)
print(f"\nreduced automaton: {len(g0.vertices)} states, "
      f"{len(g0.bundles)} edge bundles")
print(export_dot(g0))

g1 = canonical_automaton(F2)
print(f"canonical refinement: {len(g1.vertices)} states "
      f"(competitor-offset sets split the cone types)")
nonempty = [v for v in g1.vertices if v.pset]
print(f"{len(nonempty)} states carry a nonempty offset set, e.g. "
      f"{[F2.render(x) for x in nonempty[0].pset]}")

report = verify_structure(g1, 4, 3)
print("structure checks:", report["checks"])
print("accepted paths =", report["counts"]["accepted"],
      "= ball size =", report["counts"]["ball"])

# a free product with a torsion factor works the same way
G = free_product(FactorSpec((0, 0)), FactorSpec((3,)))
gg = canonical_automaton(G, C=3, m=3, B=2)
print(f"\nZ^2 * Z/3: {len(gg.cone_types)} cone types, "
      f"{len(gg.vertices)} canonical states, "
      f"checks {verify_structure(gg, 3, 2)['checks']}")
