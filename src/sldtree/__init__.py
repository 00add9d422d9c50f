"""Exhaustive SLD search trees for a mini-Prolog subset.

Build the complete search tree for a query, failed and cut-pruned
branches included, draw it as text, and read the answers off the
Success leaves in depth-first order.
"""
