from .evaluator import Solution

__all__ = ["Solution"]
