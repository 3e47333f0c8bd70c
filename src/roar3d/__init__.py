"""Desk-scale multi-view conditioned 3D latent flow model.

A miniature flow-matching transformer over occupancy-grid latents of
procedural 3D shapes, conditioned on arbitrary unposed synthetic views
through a token-wise view router and dual-stream cross attention, with an
orientation-perturbation training regime, geometry metrics, and routing
analytics. Everything runs on numpy float64 with a small built-in autodiff
tape, in minutes on a laptop CPU.
"""
