"""conelab: exact-arithmetic curve cones on rational and ruled surfaces.

Divisor-class arithmetic, bounded enumeration of sphere classes, Cremona
reduction, exact polyhedral cone duality, formal inflation, negative-curve
configurations, and wall-crossing certificates.  Everything runs over
exact rationals; see the README for the command line front end.
"""
