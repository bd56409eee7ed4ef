"""Central configuration: the ``REPRO_*`` environment-knob registry.

Every environment variable the pipeline reads is declared once in
:mod:`repro.config.knobs` — name, type, default and documentation —
and read through its typed accessors.  ``repro-lint`` rule RPR003
enforces that no other module touches ``os.environ`` directly, so the
registry (and the knob table it renders into the docs) is guaranteed
to be complete.
"""
