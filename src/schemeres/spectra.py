"""The spectral tolerance.

``scheme.spectral_data`` decomposes one generic element of the intersection
algebra with ``np.linalg.eigh``, and ``CLUSTER_TOL`` is the relative
eigenvalue gap that element must clear.
"""

#: relative gap below which two eigenvalues are treated as one cluster
CLUSTER_TOL = 1e-7
