"""Experiment harnesses regenerating every table/figure of the paper."""
