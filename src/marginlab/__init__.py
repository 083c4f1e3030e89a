"""marginlab: a numerical laboratory for normalized-softmax margin losses.

Five loss variants (plain normalized softmax, CosFace, ArcFace, MV-softmax
and NPCFace's negative-positive collaborative margins) with exact analytic
gradients, a synthetic hypersphere training harness, hardness diagnostics,
and face-verification-style evaluation metrics. Each name is imported from
its own module (``marginlab.losses``, ``marginlab.train``, ...); the package
root holds only ``__version__``.
"""

__version__ = "0.1.0"
