"""Finite set-theoretic Yang-Baxter solutions and their quadratic algebras."""
