"""Run-config parsing shared by the workload process and the cold-start probe."""

import configparser

from signvote.simulation import config_from_mapping


def read_config(path, overrides=()):
    """Parse an INI run config and apply ``section.key=value`` overrides.

    This is what ``signvote run --config PATH --set section.key=value`` does,
    written against the public ``config_from_mapping``.
    """
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)
    mapping = {section: dict(parser.items(section)) for section in parser.sections()}
    for item in overrides:
        key, _, value = item.partition("=")
        section, _, name = key.partition(".")
        mapping.setdefault(section, {})[name] = value
    return config_from_mapping(mapping)
