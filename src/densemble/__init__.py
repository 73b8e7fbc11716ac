"""Decorrelated and frequency-partitioned ensembles of 1-D signal
classifiers, with PGD/SAP adversarial robustness evaluation."""
