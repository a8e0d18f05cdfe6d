"""Exponential Runge-Kutta methods for stiff linear evolution equations. The public names
are the modules' (README.md lists them), imported from their module: from exprk import stepping."""
