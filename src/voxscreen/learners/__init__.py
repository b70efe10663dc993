"""From-scratch classifiers and their shared optimization machinery."""

from .adam import Adam
from .cnn import CnnConfig, CnnModel, train_cnn
from .logreg import LogRegModel, train_logreg
from .lstm import LstmConfig, LstmModel, train_lstm
from .models import TrainedModel
from .svm import SvmModel, kkt_violations, smo_solve, train_svm_smo

__all__ = [
    "Adam",
    "CnnConfig", "CnnModel", "train_cnn",
    "LogRegModel", "train_logreg",
    "LstmConfig", "LstmModel", "train_lstm",
    "TrainedModel",
    "SvmModel", "kkt_violations", "smo_solve", "train_svm_smo",
]
