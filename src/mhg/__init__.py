"""Primitive 3-constrained metrically homogeneous graphs: admissible
parameters, the magic completion algorithm, forbidden cycle families and a
desk-scale verifier for the completion characterization."""
