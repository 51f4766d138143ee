"""Label a transition structure with points and lift its operators to opens."""

from plotgarden import (TransitionStructure, validate_space, validate_plot,
                        lift_operators, lift_report)

space = validate_space(["P", "Q"], [[], ["Q"], ["P", "Q"]])
structure = TransitionStructure(["P", "Q"], edges=[("P", "Q")])
plot = validate_plot(structure, space, {"P": "P", "Q": "Q"})
print("plot:", plot)

# box(E): every successor in E; diamond(E): some successor in E
E = frozenset(["Q"])
box_E = [n for n in structure.nodes if structure.successors(n) <= E]
diamond_E = [n for n in structure.nodes if structure.successors(n) & E]
print("box({Q}) on nodes:    ", box_E)
print("diamond({Q}) on nodes:", diamond_E)

lifted = lift_operators(plot)
print("lifted tables over the opens:")
for u in lifted.frame.elements:
    print("  %-6s  box -> %-6s  diamond -> %s"
          % (u, lifted.box_sigma[u], lifted.diamond_sigma[u]))

print("law records:")
for record in lift_report(plot):
    print("  %s  %s" % ("PASS" if record["passed"] else "FAIL", record["id"]))
