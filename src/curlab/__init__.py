"""curlab: a numerical laboratory for calibrated 2-currents.

Discrete integral 2-currents on triangle meshes, calibration 2-form fields,
blow-up/density analysis around singular points, and scaled-energy analysis
of pseudo-holomorphic maps, with a CLI front end emitting CSV traces.
"""

__version__ = "0.1.0"

# the triangle/disk clip kernel (`curlab._clip`) is plain numpy
clip_backend = "numpy"
