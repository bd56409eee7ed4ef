"""Post-hoc analyses over deployed systems (error-budget attribution)."""
