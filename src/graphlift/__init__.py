"""graphlift: lifting 2D hand-object keypoints to 3D with an adaptive
graph U-Net, from-scratch autodiff included.

Import what you need from its module: tensor autodiff, graph layers, the
U-Net, the stub-encoder cascade, synthetic data, metrics, training,
ablations.
"""

__version__ = "0.1.0"
