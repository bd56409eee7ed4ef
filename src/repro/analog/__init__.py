"""Behavioural analog periphery: AD/DA converters, neurons, comparators."""
