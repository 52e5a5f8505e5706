"""hypme: exact-arithmetic toolkit for hyperbolicity obstructions and
discrete measure-equivalence couplings.

Modules by concern:

  graphs         exact finite-graph metrics, geodesic point sets, generators
  hyperbolicity  thin-triangle and four-point constants, path-distance bounds
  cycles         bi-Lipschitz cycle embeddings and the obstruction inequality
  groups         marked groups, Cayley balls, growth and entropy
  integrability  the weight-function families (power, exp_power, poly_plus)
  coupling       subgroup couplings, cocycles, coboundedness, measure bounds
  rigidity       thresholds and the vanishing/schedule condition checkers
  cli            the command-line front door
  rational       exact rationals and certified brackets
  brackets       the integer arithmetic behind the certified brackets
  reports        the deterministic JSON report writer
  errors         the error classes and the work Budget

Importing `hypme` runs none of them.  Importing `hypme.cli` runs `errors`
and registers each other module above in sys.modules and on this package
without running it; a module runs when one of its attributes is first read,
so each CLI run executes only the modules its subcommand calls (see
`hypme.cli` for the import rule that keeps this true).  numpy is the only
runtime dependency.
"""

__version__ = "0.1.0"
