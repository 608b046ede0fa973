"""Thermal quantum correlations of a two-qubit XYZ chain with DM and KSEA
couplings: negativity, local quantum uncertainty, and local quantum Fisher
information, with closed-form/oracle cross-checks and a formula audit."""

__version__ = "0.1.0"
